package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
)

var tcProgram = `
	T(x,y) :- E(x,y).
	T(x,z) :- T(x,y), E(y,z).
`

func TestFixpointTransitiveClosure(t *testing.T) {
	p := MustParseProgram(tcProgram)
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,d)`)
	out, err := p.Fixpoint(in, FixpointOptions{Mode: SemiNaive})
	if err != nil {
		t.Fatalf("Fixpoint: %v", err)
	}
	want := fact.MustParseInstance(`
		E(a,b) E(b,c) E(c,d)
		T(a,b) T(b,c) T(c,d)
		T(a,c) T(b,d)
		T(a,d)
	`)
	if !out.Equal(want) {
		t.Errorf("TC output = %v\nwant %v", out, want)
	}
}

func TestFixpointEmptyInput(t *testing.T) {
	p := MustParseProgram(tcProgram)
	out, err := p.Fixpoint(fact.NewInstance(), FixpointOptions{})
	if err != nil {
		t.Fatalf("Fixpoint: %v", err)
	}
	if !out.Empty() {
		t.Errorf("TC of empty graph = %v", out)
	}
}

func TestFixpointCycle(t *testing.T) {
	p := MustParseProgram(tcProgram)
	in := fact.MustParseInstance(`E(a,b) E(b,a)`)
	out, err := p.Fixpoint(in, FixpointOptions{})
	if err != nil {
		t.Fatalf("Fixpoint: %v", err)
	}
	// TC of a 2-cycle: all four pairs.
	for _, s := range []string{"T(a,a)", "T(a,b)", "T(b,a)", "T(b,b)"} {
		if !out.Has(fact.MustParseFact(s)) {
			t.Errorf("missing %s in %v", s, out)
		}
	}
}

func TestFixpointSemiPositiveNegation(t *testing.T) {
	// Non-edges among the active domain. Adom is idb but the negation
	// is over the edb relation E only, so the program is semi-positive.
	p := MustParseProgram(`
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x,y) :- Adom(x), Adom(y), !E(x,y).
	`)
	in := fact.MustParseInstance(`E(a,b)`)
	out, err := p.Fixpoint(in, FixpointOptions{})
	if err != nil {
		t.Fatalf("Fixpoint: %v", err)
	}
	for _, s := range []string{"O(a,a)", "O(b,a)", "O(b,b)"} {
		if !out.Has(fact.MustParseFact(s)) {
			t.Errorf("missing %s", s)
		}
	}
	if out.Has(fact.MustParseFact("O(a,b)")) {
		t.Error("O(a,b) derived although E(a,b) holds")
	}
}

func TestFixpointRejectsNonSemiPositive(t *testing.T) {
	p := MustParseProgram(`
		T(x) :- A(x).
		O(x) :- A(x), !T(x).
	`)
	if _, err := p.Fixpoint(fact.NewInstance(), FixpointOptions{}); err == nil {
		t.Error("Fixpoint should reject non-semi-positive program")
	}
}

func TestFixpointInequalities(t *testing.T) {
	p := MustParseProgram(`O(x,y) :- E(x,y), x != y.`)
	in := fact.MustParseInstance(`E(a,a) E(a,b)`)
	out, err := p.Fixpoint(in, FixpointOptions{})
	if err != nil {
		t.Fatalf("Fixpoint: %v", err)
	}
	if out.Has(fact.MustParseFact("O(a,a)")) {
		t.Error("inequality not enforced")
	}
	if !out.Has(fact.MustParseFact("O(a,b)")) {
		t.Error("O(a,b) missing")
	}
}

func TestFixpointConstants(t *testing.T) {
	p := MustParseProgram(`O(x) :- E(x,"b").`)
	in := fact.MustParseInstance(`E(a,b) E(a,c)`)
	out, err := p.Fixpoint(in, FixpointOptions{})
	if err != nil {
		t.Fatalf("Fixpoint: %v", err)
	}
	if !out.Has(fact.MustParseFact("O(a)")) || out.Len() != 3 {
		t.Errorf("constant matching broken: %v", out)
	}
}

// TestResultIsHandedOver: the result of Fixpoint and EvalStratified
// takes the index's tables over instead of copying them, and must
// still behave as an ordinary instance — swap-delete removal, re-adds,
// Clone, Equal, Facts and AddAll agree with an instance built by Add,
// so its key index stayed consistent — and share nothing with the
// input in either direction.
func TestResultIsHandedOver(t *testing.T) {
	in := generate.RandomGraph(rand.New(rand.NewSource(3)), "v", 12, 30)
	before := in.Clone()
	for name, eval := range map[string]func() (*fact.Instance, error){
		"Fixpoint":       func() (*fact.Instance, error) { return MustParseProgram(tcProgram).Fixpoint(in, FixpointOptions{}) },
		"EvalStratified": func() (*fact.Instance, error) { return MustParseProgram(complementTC).Eval(in) },
	} {
		out, err := eval()
		if err != nil {
			t.Fatal(err)
		}
		facts := out.Facts()
		want := fact.NewInstance(facts...)
		for k, f := range facts {
			if k%3 == 0 && (!out.Remove(f) || !want.Remove(f)) {
				t.Fatalf("%s: Remove(%v) reported it absent", name, f)
			}
		}
		for k, f := range append(facts, fact.New("T", "new1", "new2"), fact.New("E", "new2", "new3")) {
			if k%6 == 0 || k >= len(facts) {
				out.Add(f)
				want.Add(f)
			}
		}
		for _, f := range facts {
			if out.Has(f) != want.Has(f) {
				t.Errorf("%s: Has(%v) = %v after the mutations, want %v", name, f, out.Has(f), want.Has(f))
			}
		}
		all := fact.NewInstance()
		if !out.Equal(want) || !want.Equal(out) || out.Clone().String() != want.String() ||
			all.AddAll(out) != want.Len() || !all.Equal(want) {
			t.Errorf("%s: mutated result %v, want %v", name, out, want)
		}
		if !in.Equal(before) {
			t.Fatalf("%s: mutating the result changed the input to %v", name, in)
		}
		in.Add(fact.New("E", "in1", "in2"))
		if out.Has(fact.New("E", "in1", "in2")) {
			t.Errorf("%s: a fact added to the input shows in the result", name)
		}
		in.Remove(fact.New("E", "in1", "in2"))
	}
}

func TestFixpointInputNotMutated(t *testing.T) {
	p := MustParseProgram(tcProgram)
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	before := in.Clone()
	if _, err := p.Fixpoint(in, FixpointOptions{}); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(before) {
		t.Error("Fixpoint mutated its input")
	}
}

func TestFixpointMaxRounds(t *testing.T) {
	p := MustParseProgram(tcProgram)
	// A long chain needs many rounds; a bound of 1 must trip.
	in := fact.NewInstance()
	for i := 0; i < 10; i++ {
		in.Add(fact.New("E", fact.Value(fmt.Sprintf("v%d", i)), fact.Value(fmt.Sprintf("v%d", i+1))))
	}
	if _, err := p.Fixpoint(in, FixpointOptions{MaxRounds: 1}); err == nil {
		t.Error("MaxRounds=1 should abort on a chain of length 10")
	}
}

// Naive and semi-naive evaluation must agree on random inputs for a
// battery of programs — semi-naive's correctness oracle.
func TestNaiveVsSemiNaive(t *testing.T) {
	programs := []string{
		tcProgram,
		`O(x,y) :- E(x,y), E(y,x).`,
		`P(x,z) :- E(x,y), E(y,z).
		 Q(x,w) :- P(x,z), P(z,w).
		 O(x) :- Q(x,x).`,
		`Adom(x) :- E(x,y).
		 Adom(y) :- E(x,y).
		 O(x,y) :- Adom(x), Adom(y), !E(x,y), x != y.`,
	}
	rng := rand.New(rand.NewSource(23))
	for pi, src := range programs {
		p := MustParseProgram(src)
		for trial := 0; trial < 30; trial++ {
			in := randomEdges(rng, 5, 7)
			a, err := p.Fixpoint(in, FixpointOptions{Mode: Naive})
			if err != nil {
				t.Fatalf("program %d naive: %v", pi, err)
			}
			b, err := p.Fixpoint(in, FixpointOptions{Mode: SemiNaive})
			if err != nil {
				t.Fatalf("program %d semi-naive: %v", pi, err)
			}
			if !a.Equal(b) {
				t.Fatalf("program %d input %v:\nnaive     = %v\nsemi-naive = %v", pi, in, a, b)
			}
		}
	}
}

// The fixpoint is inflationary and idempotent: input ⊆ P(I) and
// running P on its own output (restricted back to edb) changes nothing.
func TestFixpointInflationary(t *testing.T) {
	p := MustParseProgram(tcProgram)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		in := randomEdges(rng, 5, 6)
		out, err := p.Fixpoint(in, FixpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !in.SubsetOf(out) {
			t.Fatalf("fixpoint lost input facts: in=%v out=%v", in, out)
		}
		again, err := p.Fixpoint(out.Restrict(p.EDB()), FixpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !again.Union(out).Equal(out) {
			t.Fatalf("fixpoint not idempotent on %v", in)
		}
	}
}

// Positive programs are monotone: P(I) ⊆ P(I ∪ J).
func TestPositiveProgramMonotone(t *testing.T) {
	p := MustParseProgram(tcProgram)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		i := randomEdges(rng, 4, 5)
		j := randomEdges(rng, 4, 3)
		a, _ := p.Fixpoint(i, FixpointOptions{})
		b, _ := p.Fixpoint(i.Union(j), FixpointOptions{})
		if !a.SubsetOf(b) {
			t.Fatalf("monotonicity violated: P(%v)=%v not ⊆ P(∪)=%v", i, a, b)
		}
	}
}

// Genericity (Section 2): renaming values commutes with evaluation for
// constant-free programs.
func TestFixpointGenericity(t *testing.T) {
	p := MustParseProgram(tcProgram)
	rng := rand.New(rand.NewSource(37))
	perm := fact.Hom{"v0": "w3", "v1": "w1", "v2": "w0", "v3": "w4", "v4": "w2"}
	for trial := 0; trial < 30; trial++ {
		in := randomEdges(rng, 5, 6)
		out1, _ := p.Fixpoint(in, FixpointOptions{})
		out2, _ := p.Fixpoint(in.Map(perm), FixpointOptions{})
		if !out1.Map(perm).Equal(out2) {
			t.Fatalf("genericity violated on %v", in)
		}
	}
}

func randomEdges(rng *rand.Rand, n, m int) *fact.Instance {
	in := fact.NewInstance()
	for k := 0; k < m; k++ {
		a := fact.Value(fmt.Sprintf("v%d", rng.Intn(n)))
		b := fact.Value(fmt.Sprintf("v%d", rng.Intn(n)))
		in.Add(fact.New("E", a, b))
	}
	return in
}
