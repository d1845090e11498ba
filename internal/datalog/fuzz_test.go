package datalog

import (
	"testing"

	"repro/internal/fact"
)

// FuzzParseProgram checks the rule parser never panics and that every
// accepted program survives a print/parse round trip.
func FuzzParseProgram(f *testing.F) {
	for _, seed := range []string{
		"T(x,y) :- E(x,y).",
		"T(x,z) :- T(x,y), E(y,z).",
		"O(x) :- A(x), !B(x), x != y, A(y).",
		"Win(x) :- Move(x,y), ¬Win(y).",
		`O(x) :- E(x,"const"), x != "other".`,
		"O(x) <- A(x).",
		"O(x) :- A(x)", // missing dot
		":- A(x).",     // missing head
		"O(x,y) :- .",  // empty body
		"# just a comment",
		"",
		"Id(*, x) :- E(x,y).", // invention symbol rejected here
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseProgram(s)
		if err != nil {
			return
		}
		back, err := ParseProgram(p.String())
		if err != nil {
			t.Fatalf("accepted program prints unparseable form:\n%s\n%v", p, err)
		}
		if back.String() != p.String() {
			t.Fatalf("round trip changed program:\n%s\nvs\n%s", p, back)
		}
	})
}

// FuzzEvalSmall evaluates accepted programs on a tiny fixed instance;
// the engine must never panic, and all evaluation modes — naive,
// semi-naive and parallel — must agree.
func FuzzEvalSmall(f *testing.F) {
	for _, seed := range []string{
		"T(x,y) :- E(x,y).",
		"T(x,z) :- T(x,y), E(y,z).",
		"O(x) :- E(x,x).",
		"O(x,y) :- E(x,y), !E(y,x), x != y.",
	} {
		f.Add(seed)
	}
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(a,a)`)
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseProgram(s)
		if err != nil {
			return
		}
		// Skip programs whose idb relations collide with the input.
		if p.IDB().Has("E") {
			return
		}
		if !p.IsStratifiable() {
			return
		}
		a, errA := p.EvalStratified(in, FixpointOptions{Mode: Naive, MaxRounds: 64})
		b, errB := p.EvalStratified(in, FixpointOptions{Mode: SemiNaive, MaxRounds: 64})
		c, errC := p.EvalStratified(in, FixpointOptions{Mode: Parallel, MaxRounds: 64})
		if (errA == nil) != (errB == nil) || (errA == nil) != (errC == nil) {
			t.Fatalf("modes disagree on error: naive=%v seminaive=%v parallel=%v", errA, errB, errC)
		}
		if errA == nil && (!a.Equal(b) || !a.Equal(c)) {
			t.Fatalf("modes disagree on program:\n%s\nnaive=%v\nseminaive=%v\nparallel=%v", p, a, b, c)
		}
	})
}
