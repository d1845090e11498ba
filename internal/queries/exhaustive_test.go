package queries

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
)

// Exhaustive agreement between the native evaluators and the Datalog
// programs on every graph over two values (16 graphs) and, for the
// cheaper queries, every graph over three values (512 graphs).
func TestExhaustiveNativeVsDatalogN2(t *testing.T) {
	pairs := []struct {
		name   string
		native monotone.Query
		dl     monotone.Query
	}{
		{"TC", TC(), TCDatalog()},
		{"QTC", ComplementTC(), ComplementTCDatalog()},
		{"NoLoop", NoLoop(), NoLoopDatalog()},
		{"Q2clique", KClique(2), KCliqueDatalog(2)},
		{"Q3clique", KClique(3), KCliqueDatalog(3)},
		{"Q1star", KStar(1), kStarDatalog(1)},
		{"Q2star", KStar(2), kStarDatalog(2)},
	}
	for _, p := range pairs {
		generate.AllGraphs(generate.Values("v", 2), func(g *fact.Instance) bool {
			a, err := p.native.Eval(g)
			if err != nil {
				t.Fatalf("%s native on %v: %v", p.name, g, err)
			}
			b, err := p.dl.Eval(g)
			if err != nil {
				t.Fatalf("%s datalog on %v: %v", p.name, g, err)
			}
			if !a.Equal(b) {
				t.Fatalf("%s disagrees on %v:\nnative  = %v\ndatalog = %v", p.name, g, a, b)
			}
			return true
		})
	}
}

func TestExhaustiveNativeVsDatalogN3(t *testing.T) {
	if testing.Short() {
		t.Skip("512-graph sweep skipped in -short mode")
	}
	pairs := []struct {
		name   string
		native monotone.Query
		dl     monotone.Query
	}{
		{"TC", TC(), TCDatalog()},
		{"QTC", ComplementTC(), ComplementTCDatalog()},
		{"NoLoop", NoLoop(), NoLoopDatalog()},
		{"Q3clique", KClique(3), KCliqueDatalog(3)},
	}
	for _, p := range pairs {
		generate.AllGraphs(generate.Values("v", 3), func(g *fact.Instance) bool {
			a, err := p.native.Eval(g)
			if err != nil {
				t.Fatalf("%s native on %v: %v", p.name, g, err)
			}
			b, err := p.dl.Eval(g)
			if err != nil {
				t.Fatalf("%s datalog on %v: %v", p.name, g, err)
			}
			if !a.Equal(b) {
				t.Fatalf("%s disagrees on %v:\nnative  = %v\ndatalog = %v", p.name, g, a, b)
			}
			return true
		})
	}
}

// Exhaustive monotonicity on all (I, J) graph pairs over split value
// sets: TC never violates M; NoLoop never violates Mdistinct; QTC
// never violates Mdisjoint. Two values for I and one fresh value for J
// give 16 × 256 candidate pairs per query before class filtering.
func TestExhaustiveClassMemberships(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive pair sweep skipped in -short mode")
	}
	iVals := generate.Values("v", 2)
	jVals := append(generate.Values("v", 2), "w0")
	cases := []struct {
		q monotone.Query
		c monotone.Class
	}{
		{TC(), monotone.M},
		{NoLoop(), monotone.MDistinct},
		{ComplementTC(), monotone.MDisjoint},
	}
	for _, cse := range cases {
		w, err := monotone.ExhaustiveCheck(cse.q, cse.c, func(yield func(i, j *fact.Instance) bool) {
			generate.AllGraphs(iVals, func(i *fact.Instance) bool {
				cont := true
				generate.AllGraphs(jVals, func(j *fact.Instance) bool {
					cont = yield(i, j)
					return cont
				})
				return cont
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", cse.q.Name(), err)
		}
		if w != nil {
			t.Errorf("%s violated %v exhaustively: %v", cse.q.Name(), cse.c, w)
		}
	}
}
