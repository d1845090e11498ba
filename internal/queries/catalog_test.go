package queries

import (
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
)

func TestCatalogEntriesConsistent(t *testing.T) {
	for _, e := range catalog() {
		if e.Name == "" || e.Query == nil {
			t.Errorf("malformed entry %+v", e)
			continue
		}
		// Programs, when present, agree with the native evaluator on a
		// smoke input over the query's schema.
		if e.Program == nil {
			continue
		}
		var in *fact.Instance
		if e.Query.InputSchema().Has("E") {
			in = fact.MustParseInstance(`E(a,b) E(b,c) E(c,a)`)
		} else {
			continue
		}
		want, err := e.Query.Eval(in)
		if err != nil {
			t.Fatalf("%s native: %v", e.Name, err)
		}
		q, err := newDatalogQuery(e.Program)
		if err != nil {
			t.Fatalf("%s program: %v", e.Name, err)
		}
		got, err := q.Eval(in)
		if err != nil {
			t.Fatalf("%s program eval: %v", e.Name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: program %v != native %v", e.Name, got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"tc", true},
		{"qtc", true},
		{"winmove", true},
		{"winmove3v", true},
		{"clique:3", true},
		{"star:2", true},
		{"duplicate:3", true},
		{"clique:1", false},
		{"clique:x", false},
		{"nope", false},
		{"star:", false},
	}
	for _, c := range cases {
		e, err := Lookup(c.name)
		if c.ok && err != nil {
			t.Errorf("Lookup(%q): %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Lookup(%q) should fail, got %+v", c.name, e)
		}
	}
	e, _ := Lookup("clique:4")
	if e.Query == nil || e.Program == nil {
		t.Error("clique:4 entry incomplete")
	}
}

// Catalog classes are sound: each query with an unbounded class passes
// sampling in that class.
func TestCatalogClassesSound(t *testing.T) {
	for _, e := range catalog() {
		if e.InC {
			continue
		}
		var sampler monotone.Sampler
		if e.Query.InputSchema().Has("Move") {
			sampler = func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
				return randomGame(rng, "v", 4, 5), randomGame(rng, "w", 4, 5)
			}
		} else {
			sampler = func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
				i := generate.RandomGraph(rng, "v", 4, 5)
				pool := append(generate.Values("v", 4), generate.Values("w", 4)...)
				return i, generate.Random(rng, fact.GraphSchema(), pool, 4)
			}
		}
		w, err := monotone.FindViolation(e.Query, e.Class,
			monotone.ClassSampler(e.Class, sampler), 101, 200)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if w != nil {
			t.Errorf("%s claims class %v but violates it: %v", e.Name, e.Class, w)
		}
	}
}
