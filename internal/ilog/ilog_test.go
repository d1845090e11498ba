package ilog

import (
	"errors"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// edgeIDProgram assigns a fresh invented id to every edge:
//
//	Id(*, x, y) :- E(x,y).
//	O(x,y)      :- Id(i, x, y).
func edgeIDProgram() *Program {
	return newProgram(
		Rule{Head: datalog.AtomV("Id", "x", "y"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("E", "x", "y")}},
		Rule{Head: datalog.AtomV("O", "x", "y"), Pos: []datalog.Atom{datalog.AtomV("Id", "i", "x", "y")}},
	)
}

func TestSkolemValueInjective(t *testing.T) {
	a := skolemValue("R", []fact.Value{"x", "y"})
	b := skolemValue("R", []fact.Value{"xy"})
	c := skolemValue("R", []fact.Value{"x", "y"})
	d := skolemValue("S", []fact.Value{"x", "y"})
	if a == b || a == d {
		t.Error("skolemValue collided across different functors/args")
	}
	if a != c {
		t.Error("skolemValue not deterministic")
	}
	if !isInvented(a) {
		t.Error("Skolem value not marked invented")
	}
	if isInvented("plain") {
		t.Error("plain value marked invented")
	}
	// Nested invention stays invented and distinct.
	n1 := skolemValue("R", []fact.Value{a})
	n2 := skolemValue("R", []fact.Value{b})
	if n1 == n2 {
		t.Error("nested Skolem terms collided")
	}
}

func TestInventionBasic(t *testing.T) {
	p := edgeIDProgram()
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	out, err := p.Eval(in, Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	ids := out.Rel("Id")
	if len(ids) != 2 {
		t.Fatalf("got %d Id facts, want 2: %v", len(ids), ids)
	}
	// Distinct edges receive distinct ids; the same edge always the same id.
	if ids[0].Arg(0) == ids[1].Arg(0) {
		t.Error("two distinct edges share an invented id")
	}
	for _, f := range ids {
		if !isInvented(f.Arg(0)) {
			t.Errorf("id %v not an invented value", f.Arg(0))
		}
	}
}

func TestInventionFunctional(t *testing.T) {
	// Evaluating twice yields identical invented values (Skolem
	// functions are deterministic).
	p := edgeIDProgram()
	in := fact.MustParseInstance(`E(a,b)`)
	out1, err := p.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := p.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Equal(out2) {
		t.Error("invention not deterministic across evaluations")
	}
}

func TestEvalQuerySafeOutput(t *testing.T) {
	p := edgeIDProgram()
	in := fact.MustParseInstance(`E(a,b)`)
	out, err := p.EvalQuery(in, []string{"O"}, Options{})
	if err != nil {
		t.Fatalf("EvalQuery: %v", err)
	}
	if !out.Equal(fact.MustParseInstance(`O(a,b)`)) {
		t.Errorf("output = %v", out)
	}
}

func TestEvalQueryRejectsUnsafeOutput(t *testing.T) {
	p := edgeIDProgram()
	in := fact.MustParseInstance(`E(a,b)`)
	if _, err := p.EvalQuery(in, []string{"Id"}, Options{}); err == nil {
		t.Error("output with invented values should be rejected")
	}
}

func TestDivergenceDetected(t *testing.T) {
	// N(*, x) :- E(x,y).  N(*, n) :- N(n, x). — feeds on itself.
	p := newProgram(
		Rule{Head: datalog.AtomV("N", "x"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("E", "x", "y")}},
		Rule{Head: datalog.AtomV("N", "n"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("N", "n", "x")}},
	)
	in := fact.MustParseInstance(`E(a,b)`)
	_, err := p.Eval(in, Options{MaxRounds: 100, MaxFacts: 1000})
	if !errors.Is(err, ErrDiverged) {
		t.Errorf("expected ErrDiverged, got %v", err)
	}
}

func TestStratifiedNegationWithInvention(t *testing.T) {
	// Invent an id per value, then output values whose id-fact is not
	// "blocked": Blocked is empty here, exercising negation above
	// invention.
	p := newProgram(
		Rule{Head: datalog.AtomV("Id", "x"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("V", "x")}},
		Rule{Head: datalog.AtomV("O", "x"), Pos: []datalog.Atom{datalog.AtomV("Id", "i", "x")},
			Neg: []datalog.Atom{datalog.AtomV("B", "x")}},
	)
	in := fact.MustParseInstance(`V(a) V(b) B(b)`)
	out, err := p.EvalQuery(in, []string{"O"}, Options{})
	if err != nil {
		t.Fatalf("EvalQuery: %v", err)
	}
	if !out.Equal(fact.MustParseInstance(`O(a)`)) {
		t.Errorf("output = %v", out)
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	p := newProgram(
		Rule{Head: datalog.AtomV("W", "x"),
			Pos: []datalog.Atom{datalog.AtomV("M", "x", "y")},
			Neg: []datalog.Atom{datalog.AtomV("W", "y")}},
	)
	if m := p.body().Memberships(); m != 0 {
		t.Errorf("win-move-style ILOG program claimed stratifiable: in %v", m)
	}
	if _, err := p.Eval(fact.MustParseInstance(`M(a,b)`), Options{}); err == nil {
		t.Error("Eval should reject unstratifiable program")
	}
}

func TestValidateMixedInvention(t *testing.T) {
	p := newProgram(
		Rule{Head: datalog.AtomV("R", "x"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("V", "x")}},
		Rule{Head: datalog.AtomV("R", "x", "y"), Pos: []datalog.Atom{datalog.AtomV("E", "x", "y")}},
	)
	if err := p.validate(); err == nil {
		t.Error("relation derived both with and without invention should be rejected")
	}
}

func TestUnsafePositions(t *testing.T) {
	// Id(*, x) :- V(x). P(i, x) :- Id(i, x). O(x) :- P(i, x).
	p := newProgram(
		Rule{Head: datalog.AtomV("Id", "x"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("V", "x")}},
		Rule{Head: datalog.AtomV("P", "i", "x"), Pos: []datalog.Atom{datalog.AtomV("Id", "i", "x")}},
		Rule{Head: datalog.AtomV("O", "x"), Pos: []datalog.Atom{datalog.AtomV("P", "i", "x")}},
	)
	unsafe := p.UnsafePositions()
	want := map[Position]bool{{"Id", 1}: true, {"P", 1}: true}
	if len(unsafe) != len(want) {
		t.Fatalf("unsafe positions = %v, want %v", unsafe, want)
	}
	for _, pos := range unsafe {
		if !want[pos] {
			t.Errorf("unexpected unsafe position %v", pos)
		}
	}
	if !p.IsWeaklySafe("O") {
		t.Error("O has no unsafe position; program should be weakly safe for O")
	}
	if p.IsWeaklySafe("P") {
		t.Error("P carries an invented value in position 1; not weakly safe")
	}
}

func TestUnsafePositionPropagationIntoInventionArgs(t *testing.T) {
	// An invented value flowing into a non-invention argument of
	// another invention relation taints position 2 (after the
	// invention offset).
	p := newProgram(
		Rule{Head: datalog.AtomV("A", "x"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("V", "x")}},
		Rule{Head: datalog.AtomV("B", "i"), Invents: true, Pos: []datalog.Atom{datalog.AtomV("A", "i", "x")}},
	)
	unsafe := p.UnsafePositions()
	found := false
	for _, pos := range unsafe {
		if pos == (Position{"B", 2}) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected (B,2) unsafe; got %v", unsafe)
	}
}

func TestWeaklySafeImpliesSafeEmpirically(t *testing.T) {
	// For the edge-id program, O is weakly safe; EvalQuery must never
	// report leaked invented values.
	p := edgeIDProgram()
	if !p.IsWeaklySafe("O") {
		t.Fatal("edge-id program should be weakly safe for O")
	}
	for _, src := range []string{`E(a,b)`, `E(a,b) E(b,c) E(c,a)`, ``} {
		in := fact.MustParseInstance(src)
		if _, err := p.EvalQuery(in, []string{"O"}, Options{}); err != nil {
			t.Errorf("weakly safe program leaked on %q: %v", src, err)
		}
	}
}

func TestFromDatalog(t *testing.T) {
	dp := datalog.MustParseProgram(`T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).`)
	p := fromDatalog(dp)
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	out, err := p.EvalQuery(in, []string{"T"}, Options{})
	if err != nil {
		t.Fatalf("EvalQuery: %v", err)
	}
	dout, _ := dp.Eval(in)
	if !out.Equal(dout.Restrict(fact.MustSchema(map[string]int{"T": 2}))) {
		t.Errorf("ILOG evaluation of plain Datalog differs: %v", out)
	}
}

func TestIlogConnectivity(t *testing.T) {
	connected := Rule{Head: datalog.AtomV("Id", "x", "y"), Invents: true,
		Pos: []datalog.Atom{datalog.AtomV("E", "x", "y")}}
	// graph+(ϕ) ignores the invention position: it is not a body variable.
	if !connected.asDatalogRule().IsConnected() {
		t.Error("single-atom invention rule should be connected")
	}
	disconnected := Rule{Head: datalog.AtomV("P", "x", "u"),
		Pos: []datalog.Atom{datalog.AtomV("E", "x", "y"), datalog.AtomV("E", "u", "v")}}
	if disconnected.asDatalogRule().IsConnected() {
		t.Error("cartesian rule should be disconnected")
	}

	p := newProgram(connected)
	if !p.body().Memberships().Has(datalog.FragConDatalog) || !p.IsSemiConnected() {
		t.Error("connected program misclassified")
	}
	q := newProgram(
		disconnected,
		Rule{Head: datalog.AtomV("O", "x"), Pos: []datalog.Atom{datalog.AtomV("V", "x")},
			Neg: []datalog.Atom{datalog.AtomV("P", "x", "x")}},
	)
	if q.IsSemiConnected() {
		t.Error("negated disconnected predicate should break semicon for ILOG too")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Head: datalog.AtomV("Id", "x", "y"), Invents: true,
		Pos: []datalog.Atom{datalog.AtomV("E", "x", "y")}}
	if got := r.String(); got != "Id(*, x,y) :- E(x,y)." {
		t.Errorf("String = %q", got)
	}
	zero := Rule{Head: datalog.Atom{Rel: "Id"}, Invents: true,
		Pos: []datalog.Atom{datalog.AtomV("V", "x")}}
	if got := zero.String(); got != "Id(*) :- V(x)." {
		t.Errorf("zero-arg String = %q", got)
	}
}

func TestZeroArgInvention(t *testing.T) {
	// Id(*) :- V(x): one shared invented constant regardless of x.
	p := newProgram(
		Rule{Head: datalog.Atom{Rel: "Id"}, Invents: true, Pos: []datalog.Atom{datalog.AtomV("V", "x")}},
	)
	out, err := p.Eval(fact.MustParseInstance(`V(a) V(b)`), Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if ids := out.Rel("Id"); len(ids) != 1 {
		t.Errorf("zero-arg invention should create exactly one value, got %v", ids)
	}
}
