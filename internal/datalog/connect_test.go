package datalog

import (
	"testing"
)

func TestRuleIsConnected(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		// Single atom: trivially connected.
		{`O(x,y) :- E(x,y).`, true},
		// Two atoms sharing y: connected chain.
		{`O(x,z) :- E(x,y), E(y,z).`, true},
		// Cartesian product: x,y vs u,v disconnected.
		{`O(x,u) :- E(x,y), E(u,v).`, false},
		// Disconnected via negation only: neg atoms don't join graph+.
		{`O(x,u) :- E(x,y), E(u,v), !F(y,v).`, false},
		// Inequalities don't connect either.
		{`O(x,u) :- E(x,y), E(u,v), y != v.`, false},
		// Single variable: trivially connected.
		{`O(x) :- V(x).`, true},
		// Triangle rule from Example 5.1: connected.
		{`T(x) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.`, true},
		// Single unary positive atom plus negation (Example 5.1 P1 rule 2).
		{`O(x) :- ¬T(x), Adom(x).`, true},
		// Constants are not nodes: a shared constant joins nothing.
		{`O(x,u) :- E(x,"c"), E(u,"c").`, false},
		// An atom of constants only adds no node.
		{`O(x) :- E(x,x), A("c").`, true},
	}
	for _, c := range cases {
		r, err := ParseRule(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if got := r.IsConnected(); got != c.want {
			t.Errorf("IsConnected(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

// Example 5.1, program P1: in con-Datalog¬.
var example51P1 = `
	T(x) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.
	O(x) :- ¬T(x), Adom(x).
	Adom(x) :- E(x,y).
	Adom(y) :- E(x,y).
`

// Example 5.1, program P2: not a semicon-Datalog¬ program (its second
// rule, defining D from two disjoint triangles, is disconnected, and D
// is later negated).
var example51P2 = `
	T(x,y,z) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.
	D(x1) :- T(x1,x2,x3), T(y1,y2,y3),
	         x1 != y1, x1 != y2, x1 != y3,
	         x2 != y1, x2 != y2, x2 != y3,
	         x3 != y1, x3 != y2, x3 != y3.
	O(x) :- ¬D(x), Adom(x).
	Adom(x) :- E(x,y).
	Adom(y) :- E(x,y).
`

func TestExample51Classification(t *testing.T) {
	p1 := MustParseProgram(example51P1)
	// P1 negates the idb relation T, so it is not in SP-Datalog, and
	// con ⊆ semicon.
	if got, want := p1.Memberships().String(), "con-Datalog¬, semicon-Datalog¬, Datalog¬"; got != want {
		t.Errorf("Memberships(P1) = %q, want %q", got, want)
	}
	if got := p1.Classify(); got != FragConDatalog {
		t.Errorf("Classify(P1) = %v, want %v", got, FragConDatalog)
	}

	p2 := MustParseProgram(example51P2)
	// P2's D-rule is disconnected and D is negated: stratifiable, but
	// in neither con-Datalog¬ nor semicon-Datalog¬.
	if got, want := p2.Memberships().String(), "Datalog¬"; got != want {
		t.Errorf("Memberships(P2) = %q, want %q", got, want)
	}
	if got := p2.Classify(); got != FragStratified {
		t.Errorf("Classify(P2) = %v, want %v", got, FragStratified)
	}
}

func TestSemiConnectedLastStratumExemption(t *testing.T) {
	// A disconnected rule whose head is never used below the top is
	// fine: the disconnected rule can sit in the last stratum.
	p := MustParseProgram(`
		T(x,y) :- E(x,y).
		O(x,u) :- T(x,y), T(u,v).
	`)
	if !p.IsSemiConnected() {
		t.Error("disconnected final rule should be allowed in semicon-Datalog¬")
	}
	if p.Memberships().Has(FragConDatalog) {
		t.Error("program with a disconnected rule is not con-Datalog¬")
	}

	// But if the disconnected head is negated somewhere, it cannot be
	// in the last stratum.
	q := MustParseProgram(`
		D(x) :- T(x,y), T(u,v).
		T(x,y) :- E(x,y).
		O(x) :- T(x,x), !D(x).
	`)
	if q.IsSemiConnected() {
		t.Error("negated disconnected predicate should break semicon")
	}
}

func TestSemiConnectedClosurePropagation(t *testing.T) {
	// D is disconnected; P depends positively on D; P is negated.
	// The closure {D, P} is negated, so not semicon.
	p := MustParseProgram(`
		D(x) :- T(x,y), T(u,v).
		P(x) :- D(x).
		T(x,y) :- E(x,y).
		O(x) :- T(x,x), !P(x).
	`)
	if p.IsSemiConnected() {
		t.Error("closure propagation missed: P inherits D's last-stratum obligation")
	}

	// Positive use of D downstream is fine — everything floats to the top.
	q := MustParseProgram(`
		D(x) :- T(x,y), T(u,v).
		P(x) :- D(x).
		T(x,y) :- E(x,y).
		O(x) :- P(x).
	`)
	if !q.IsSemiConnected() {
		t.Error("purely positive tail above a disconnected rule should be semicon")
	}
}

func TestSemiConnectedStratification(t *testing.T) {
	p := MustParseProgram(`
		T(x,y) :- E(x,y).
		D(x,u) :- T(x,y), T(u,v).
		O(x,u) :- D(x,u).
	`)
	rho, ok := p.SemiConnectedStratification()
	if !ok {
		t.Fatal("expected semicon witness stratification")
	}
	if err := p.checkStratification(rho); err != nil {
		t.Fatalf("witness stratification invalid: %v", err)
	}
	last := rho.numStrata()
	// Every disconnected rule's head sits in the final stratum, and
	// every rule below the final stratum is connected.
	for _, r := range p.Rules {
		if !r.IsConnected() && rho[r.Head.Rel] != last {
			t.Errorf("disconnected rule %v at stratum %d, want last (%d)", r, rho[r.Head.Rel], last)
		}
		if rho[r.Head.Rel] < last && !r.IsConnected() {
			t.Errorf("disconnected rule below last stratum: %v", r)
		}
	}
}

func TestSemiConnectedStratificationUnavailable(t *testing.T) {
	p := MustParseProgram(example51P2)
	if _, ok := p.SemiConnectedStratification(); ok {
		t.Error("P2 should have no semicon witness stratification")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		src  string
		want Fragment
	}{
		{`T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).`, FragDatalog},
		{`O(x,y) :- E(x,y), x != y.`, FragDatalogNeq},
		{`O(x,y) :- E(x,y), !F(x,y).`, FragSPDatalog},
		{example51P1, FragConDatalog},
		{`T(x,y) :- E(x,y).
		  O(x,u) :- T(x,y), T(u,v), !T(u,x).`, FragSemiconDatalog},
		{example51P2, FragStratified},
		{`Win(x) :- Move(x,y), !Win(y).`, FragUnstratifiable},
	}
	for _, c := range cases {
		p := MustParseProgram(c.src)
		if got := p.Classify(); got != c.want {
			t.Errorf("Classify(%.40q...) = %v, want %v", c.src, got, c.want)
		}
	}
}

// The fragment inclusions stated after Definition 4:
// (i) SP-Datalog ⊊ semicon-Datalog¬, (ii) SP-Datalog ⊄ con-Datalog¬,
// (iii) con-Datalog¬ ⊊ semicon-Datalog¬, witnessed syntactically.
func TestFragmentInclusionWitnesses(t *testing.T) {
	// An SP-Datalog program with a disconnected rule: in semicon
	// (single stratum = last), not in con.
	sp := MustParseProgram(`O(x,u) :- V(x), V(u), !E(x,u).`)
	m := sp.Memberships()
	if !m.Has(FragSPDatalog) {
		t.Fatal("witness not SP")
	}
	if !m.Has(FragSemiconDatalog) {
		t.Error("(i) violated: SP program not semicon")
	}
	if m.Has(FragConDatalog) {
		t.Error("(ii) violated: disconnected SP program claimed con")
	}
	// A con-Datalog¬ program that is not SP (negates an idb relation).
	con := MustParseProgram(example51P1)
	m = con.Memberships()
	if m.Has(FragSPDatalog) {
		t.Error("P1 should not be SP")
	}
	if !m.Has(FragSemiconDatalog) {
		t.Error("(iii) violated: con program not semicon")
	}
}
