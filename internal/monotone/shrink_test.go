package monotone

import (
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
)

// noLoopQuery builds the SP-Datalog NoLoop query locally (the queries
// package imports monotone, so tests here use datalog directly).
func noLoopQuery() Query {
	p := datalog.MustParseProgram(`
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x) :- Adom(x), !E(x,x).
	`)
	return datalog.MustQuery(p, "O").SetName("NoLoop(local)")
}

func TestShrinkWitnessToSingleFact(t *testing.T) {
	// A deliberately bloated violation of M for NoLoop.
	q := noLoopQuery()
	i := fact.MustParseInstance(`E(a,b) E(b,c) E(c,d)`)
	j := fact.MustParseInstance(`E(a,a) E(x,y) E(y,z)`)
	w, err := CheckPair(q, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("setup: expected a violation")
	}
	small, err := ShrinkWitness(q, M, w)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 3.1(2) in action: the violation shrinks to |J| = 1.
	if small.J.Len() != 1 {
		t.Errorf("shrunk J = %v, want a single fact", small.J)
	}
	if !small.J.Has(fact.New("E", "a", "a")) {
		t.Errorf("shrunk J should keep the self-loop: %v", small.J)
	}
	if small.I.Len() > 1 {
		t.Errorf("shrunk I = %v, want at most one fact", small.I)
	}
	// The shrunk pair still violates.
	again, err := CheckPair(q, small.I, small.J)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil {
		t.Error("shrunk witness no longer violates")
	}
}

func TestShrinkWitnessRespectsClass(t *testing.T) {
	// QTC violation of Mdistinct: the shrunk J must stay domain
	// distinct from the shrunk I.
	p := datalog.MustParseProgram(`
		T(x,y) :- E(x,y).
		T(x,z) :- T(x,y), E(y,z).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x,y) :- Adom(x), Adom(y), !T(x,y).
	`)
	q := datalog.MustQuery(p, "O")
	i := fact.MustParseInstance(`E(a,a) E(b,b) E(q,q)`)
	j := fact.MustParseInstance(`E(a,c) E(c,b) E(a,d)`)
	w, err := CheckPair(q, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("setup: expected a violation")
	}
	small, err := ShrinkWitness(q, MDistinct, w)
	if err != nil {
		t.Fatal(err)
	}
	if !MDistinct.Allows(small.J, small.I.Known()) {
		t.Fatalf("shrunk pair escaped the class: I=%v J=%v", small.I, small.J)
	}
	// The minimal QTC/Mdistinct witness needs the two path facts.
	if small.J.Len() != 2 {
		t.Errorf("shrunk J = %v, want the 2-fact path through the new vertex", small.J)
	}
}

// Shrinking is idempotent and always produces a violating pair, for
// random violations found by sampling.
func TestShrinkWitnessProperty(t *testing.T) {
	q := noLoopQuery()
	sampler := func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		i := generate.RandomGraph(rng, "v", 4, 5)
		pool := append(generate.Values("v", 4), generate.Values("w", 2)...)
		return i, generate.Random(rng, fact.GraphSchema(), pool, 4)
	}
	rng := rand.New(rand.NewSource(91))
	found := 0
	for trial := 0; trial < 300 && found < 10; trial++ {
		i, j := sampler(rng)
		w, err := CheckPair(q, i, j)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			continue
		}
		found++
		small, err := ShrinkWitness(q, M, w)
		if err != nil {
			t.Fatal(err)
		}
		if small.J.Len() != 1 {
			t.Errorf("M-violation did not shrink to one fact: %v", small.J)
		}
		again, err := ShrinkWitness(q, M, small)
		if err != nil {
			t.Fatal(err)
		}
		if again.I.Len() != small.I.Len() || again.J.Len() != small.J.Len() {
			t.Error("shrinking not idempotent")
		}
	}
	if found == 0 {
		t.Fatal("sampler found no violations to shrink")
	}
}
