package datalog

import (
	"testing"

	"repro/internal/fact"
)

// Complement of transitive closure — the paper's QTC (Theorem 3.1),
// a two-stratum program.
var complementTC = `
	T(x,y) :- E(x,y).
	T(x,z) :- T(x,y), E(y,z).
	Adom(x) :- E(x,y).
	Adom(y) :- E(x,y).
	O(x,y) :- Adom(x), Adom(y), !T(x,y).
`

func TestStratifyComplementTC(t *testing.T) {
	p := MustParseProgram(complementTC)
	rho, err := p.Stratify()
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if err := p.checkStratification(rho); err != nil {
		t.Fatalf("checkStratification: %v", err)
	}
	if rho["O"] <= rho["T"] {
		t.Errorf("O must be strictly above T: rho = %v", rho)
	}
}

func TestStratifyWinMoveFails(t *testing.T) {
	// win-move is the canonical non-stratifiable program.
	p := MustParseProgram(`Win(x) :- Move(x,y), !Win(y).`)
	if _, err := p.Stratify(); err == nil {
		t.Fatal("win-move should not be stratifiable")
	}
	if p.IsStratifiable() {
		t.Error("IsStratifiable(win-move) = true")
	}
}

func TestStratifyEvenCycleFails(t *testing.T) {
	// Mutual negation through two predicates.
	p := MustParseProgram(`
		A(x) :- V(x), !B(x).
		B(x) :- V(x), !A(x).
	`)
	if p.IsStratifiable() {
		t.Error("mutually negating program claimed stratifiable")
	}
}

func TestStratifyPositiveRecursionOK(t *testing.T) {
	p := MustParseProgram(tcProgram)
	rho, err := p.Stratify()
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if rho.numStrata() != 1 {
		t.Errorf("positive program should have one stratum, got %d", rho.numStrata())
	}
}

func TestEvalStratifiedComplementTC(t *testing.T) {
	p := MustParseProgram(complementTC)
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	out, err := p.EvalStratified(in, FixpointOptions{})
	if err != nil {
		t.Fatalf("EvalStratified: %v", err)
	}
	// Reachable pairs: (a,b),(b,c),(a,c). Complement over {a,b,c}²:
	for _, s := range []string{"O(a,a)", "O(b,a)", "O(b,b)", "O(c,a)", "O(c,b)", "O(c,c)"} {
		if !out.Has(fact.MustParseFact(s)) {
			t.Errorf("missing %s", s)
		}
	}
	for _, s := range []string{"O(a,b)", "O(b,c)", "O(a,c)"} {
		if out.Has(fact.MustParseFact(s)) {
			t.Errorf("%s should not be derived (pair is reachable)", s)
		}
	}
}

func TestEvalStratifiedThreeStrata(t *testing.T) {
	// stratum 1: R; stratum 2: S (negates R); stratum 3: O (negates S).
	p := MustParseProgram(`
		R(x) :- A(x,y).
		S(y) :- A(x,y), !R(y).
		O(x) :- A(x,y), !S(x).
	`)
	rho, err := p.Stratify()
	if err != nil {
		t.Fatalf("Stratify: %v", err)
	}
	if rho.numStrata() != 3 {
		t.Errorf("want 3 strata, got %d (%v)", rho.numStrata(), rho)
	}
	in := fact.MustParseInstance(`A(a,b) A(b,c)`)
	out, err := p.EvalStratified(in, FixpointOptions{})
	if err != nil {
		t.Fatalf("EvalStratified: %v", err)
	}
	// R = {a,b}; S = {c} (c not in R); O = {x | A(x,_) and x ∉ S} = {a,b}.
	want := fact.MustParseInstance(`A(a,b) A(b,c) R(a) R(b) S(c) O(a) O(b)`)
	if !out.Equal(want) {
		t.Errorf("got %v\nwant %v", out, want)
	}
}

func TestEvalStratifiedRejectsIDBInput(t *testing.T) {
	p := MustParseProgram(tcProgram)
	in := fact.MustParseInstance(`E(a,b) T(x,y)`)
	if _, err := p.EvalStratified(in, FixpointOptions{}); err == nil {
		t.Error("input containing idb facts should be rejected")
	}
}

func TestEvalStratifiedRejectsUnstratifiable(t *testing.T) {
	p := MustParseProgram(`Win(x) :- Move(x,y), !Win(y).`)
	in := fact.MustParseInstance(`Move(a,b)`)
	if _, err := p.EvalStratified(in, FixpointOptions{}); err == nil {
		t.Error("EvalStratified should reject unstratifiable programs")
	}
}

func TestCheckStratificationRejects(t *testing.T) {
	p := MustParseProgram(complementTC)
	// Flat stratification violates the negative edge T -> O.
	flat := Stratification{"T": 1, "Adom": 1, "O": 1}
	if err := p.checkStratification(flat); err == nil {
		t.Error("flat stratification should be invalid for complementTC")
	}
	// Missing a predicate.
	missing := Stratification{"T": 1, "O": 2}
	if err := p.checkStratification(missing); err == nil {
		t.Error("stratification missing Adom should be invalid")
	}
}

func TestStrataPartition(t *testing.T) {
	p := MustParseProgram(complementTC)
	rho, _ := p.Stratify()
	strata := p.Strata(rho)
	total := 0
	for _, s := range strata {
		total += len(s)
	}
	if total != len(p.Rules) {
		t.Errorf("strata contain %d rules, program has %d", total, len(p.Rules))
	}
	if len(strata) != 2 {
		t.Errorf("complementTC should split into 2 nonempty strata, got %d", len(strata))
	}
}

// The stratified output must not depend on the chosen stratification:
// evaluate under the canonical and a padded stratification.
func TestStratificationIndependence(t *testing.T) {
	p := MustParseProgram(complementTC)
	in := fact.MustParseInstance(`E(a,b) E(b,a) E(c,c)`)
	out1, err := p.EvalStratified(in, FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Padded: push O even higher; semantics must agree.
	padded := Stratification{"T": 1, "Adom": 2, "O": 3}
	if err := p.checkStratification(padded); err != nil {
		t.Fatalf("padded stratification invalid: %v", err)
	}
	x := IndexInstance(in.Clone())
	for _, stratum := range p.Strata(padded) {
		if err := evalStratum(stratum, x, FixpointOptions{}, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	current := x.Instance()
	if !current.Equal(out1) {
		t.Errorf("stratification-dependent output:\ncanonical %v\npadded    %v", out1, current)
	}
}

func TestQueryWrapper(t *testing.T) {
	p := MustParseProgram(complementTC)
	q, err := NewQuery(p, "O")
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	if !q.InputSchema().Equal(fact.MustSchema(map[string]int{"E": 2})) {
		t.Errorf("input schema = %v", q.InputSchema())
	}
	if !q.OutputSchema().Equal(fact.MustSchema(map[string]int{"O": 2})) {
		t.Errorf("output schema = %v", q.OutputSchema())
	}
	out, err := q.Eval(fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Only O facts in the result.
	for _, f := range out.Facts() {
		if f.Rel() != "O" {
			t.Errorf("non-output fact %v leaked", f)
		}
	}
	if !out.Has(fact.MustParseFact("O(b,a)")) {
		t.Error("O(b,a) missing")
	}
}

func TestNewQueryErrors(t *testing.T) {
	p := MustParseProgram(tcProgram)
	if _, err := NewQuery(p, "E"); err == nil {
		t.Error("edb relation as output should be rejected")
	}
	if _, err := NewQuery(p, "Nope"); err == nil {
		t.Error("unknown output relation should be rejected")
	}
	if _, err := NewQuery(p); err == nil {
		t.Error("empty output relation list should be rejected")
	}
}

func TestWithAdomRules(t *testing.T) {
	p := MustParseProgram(`O(x) :- Adom(x), !E(x,x).`)
	full := WithAdomRules(p)
	// Two extra rules for E/2.
	if len(full.Rules) != 3 {
		t.Fatalf("got %d rules, want 3:\n%s", len(full.Rules), full)
	}
	in := fact.MustParseInstance(`E(a,a) E(a,b)`)
	out, err := full.EvalStratified(in, FixpointOptions{})
	if err != nil {
		t.Fatalf("EvalStratified: %v", err)
	}
	if !out.Has(fact.MustParseFact("O(b)")) || out.Has(fact.MustParseFact("O(a)")) {
		t.Errorf("Adom-based complement wrong: %v", out)
	}
}
