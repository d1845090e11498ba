package datalog

import (
	"strings"
	"testing"

	"repro/internal/fact"
)

func TestRuleValidate(t *testing.T) {
	good := Rule{
		Head: AtomV("T", "x", "y"),
		Pos:  []Atom{AtomV("R", "x", "y")},
		Neg:  []Atom{AtomV("S", "y")},
		Ineq: []Inequality{{V("x"), V("y")}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}

	// Empty positive body.
	bad := Rule{Head: AtomV("T", "x"), Neg: []Atom{AtomV("S", "x")}}
	if err := bad.Validate(); err == nil {
		t.Error("rule with empty positive body accepted")
	}

	// Unsafe head variable.
	unsafe := Rule{Head: AtomV("T", "z"), Pos: []Atom{AtomV("R", "x")}}
	if err := unsafe.Validate(); err == nil {
		t.Error("unsafe head variable accepted")
	}

	// Unsafe negated variable.
	unsafeNeg := Rule{
		Head: AtomV("T", "x"),
		Pos:  []Atom{AtomV("R", "x")},
		Neg:  []Atom{AtomV("S", "y")},
	}
	if err := unsafeNeg.Validate(); err == nil {
		t.Error("unsafe negated variable accepted")
	}

	// Unsafe inequality variable.
	unsafeIneq := Rule{
		Head: AtomV("T", "x"),
		Pos:  []Atom{AtomV("R", "x")},
		Ineq: []Inequality{{V("x"), V("w")}},
	}
	if err := unsafeIneq.Validate(); err == nil {
		t.Error("unsafe inequality variable accepted")
	}

	// Nullary atom.
	nullary := Rule{Head: Atom{Rel: "T"}, Pos: []Atom{AtomV("R", "x")}}
	if err := nullary.Validate(); err == nil {
		t.Error("nullary head accepted")
	}
}

func TestRuleVars(t *testing.T) {
	r := Rule{
		Head: AtomV("T", "x"),
		Pos:  []Atom{AtomV("R", "x", "y")},
		Neg:  []Atom{AtomV("S", "y")},
		Ineq: []Inequality{{V("x"), V("y")}},
	}
	got := r.vars()
	if strings.Join(got, ",") != "x,y" {
		t.Errorf("Vars = %v, want [x y]", got)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Head: AtomV("T", "x", "y"),
		Pos:  []Atom{AtomV("R", "x", "y")},
		Neg:  []Atom{AtomV("S", "y")},
		Ineq: []Inequality{{V("x"), V("y")}},
	}
	want := "T(x,y) :- R(x,y), !S(y), x != y."
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestProgramSchemas(t *testing.T) {
	p := MustParseProgram(`
		T(x,y) :- E(x,y).
		T(x,z) :- T(x,y), E(y,z).
	`)
	sch, err := p.Schema()
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	if !sch.Equal(fact.MustSchema(map[string]int{"E": 2, "T": 2})) {
		t.Errorf("sch(P) = %v", sch)
	}
	if !p.IDB().Equal(fact.MustSchema(map[string]int{"T": 2})) {
		t.Errorf("idb(P) = %v", p.IDB())
	}
	if !p.EDB().Equal(fact.MustSchema(map[string]int{"E": 2})) {
		t.Errorf("edb(P) = %v", p.EDB())
	}
}

func TestProgramSchemaArityConflict(t *testing.T) {
	p := NewProgram(
		Rule{Head: AtomV("T", "x"), Pos: []Atom{AtomV("R", "x")}},
		Rule{Head: AtomV("T", "x", "y"), Pos: []Atom{AtomV("R", "x"), AtomV("R", "y")}},
	)
	if err := p.Validate(); err == nil {
		t.Error("arity-inconsistent program accepted")
	}
}

func TestProgramClassPredicates(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).`,
			"Datalog, Datalog(≠), SP-Datalog, con-Datalog¬, semicon-Datalog¬, Datalog¬"},
		{`O(x,y) :- E(x,y), x != y.`, "Datalog(≠), SP-Datalog, con-Datalog¬, semicon-Datalog¬, Datalog¬"},
		{`O(x,y) :- E(x,y), !F(x,y).`, "SP-Datalog, con-Datalog¬, semicon-Datalog¬, Datalog¬"},
		// Negating an idb relation leaves SP-Datalog.
		{`T(x,y) :- E(x,y). O(x,y) :- E(x,y), !T(y,x).`, "con-Datalog¬, semicon-Datalog¬, Datalog¬"},
		{`W(x) :- M(x,y), !W(y).`, ""},
	} {
		if got := MustParseProgram(c.src).Memberships().String(); got != c.want {
			t.Errorf("Memberships(%s) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestHasConstants(t *testing.T) {
	if MustParseProgram(`O(x) :- E(x,y).`).hasConstants() {
		t.Error("constant-free program reported constants")
	}
	if !MustParseProgram(`O(x) :- E(x,"a").`).hasConstants() {
		t.Error("constant in body not detected")
	}
	if !MustParseProgram(`O(x) :- E(x,y), x != "b".`).hasConstants() {
		t.Error("constant in inequality not detected")
	}
}

func TestTermString(t *testing.T) {
	if V("x").String() != "x" {
		t.Error("variable string")
	}
	if (Term{Const: "a"}).String() != `"a"` {
		t.Error("constant string")
	}
}
