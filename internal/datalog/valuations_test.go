package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/fact"
)

// valuations runs the one enumeration entry point over a freshly
// compiled rule and returns, per valuation, the variables named in
// show grounded as a V(...) fact — in enumeration order.
func valuations(t *testing.T, x *IndexedInstance, src string, pin int, pinned *fact.Instance, head *fact.Fact, show ...string) []string {
	t.Helper()
	var got []string
	err := x.Valuations(Compile(mustRule(t, src)), pin, pinned, head, func(v *Valuation) error {
		g, err := ground(v, AtomV("V", show...))
		got = append(got, g.String())
		return err
	})
	if err != nil {
		t.Fatalf("Valuations(%s): %v", src, err)
	}
	return got
}

func TestValuationsEnumerates(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c) E(b,d)`))
	got := valuations(t, x, `P(x,z) :- E(x,y), E(y,z).`, -1, nil, nil, "x", "y", "z")
	sort.Strings(got)
	if want := []string{"V(a,b,c)", "V(a,b,d)"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("valuations = %v, want %v", got, want)
	}
}

func TestValuationsGuards(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,b) E(c,d) F(c)`))
	// E(b,b) fails x != y; E(c,d) fails !F(c); only E(a,b) survives.
	got := valuations(t, x, `P(x,y) :- E(x,y), !F(x), x != y.`, -1, nil, nil, "x", "y")
	if want := []string{"V(a,b)"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("valuations = %v, want %v", got, want)
	}
}

// The Valuation handed to emit is a live view, but the facts a caller
// materializes from it (fact.FromIDs of Head, ground) are the caller's
// to keep: later valuations must not write through them.
func TestValuationsSnapshotIsolated(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(c,d)`))
	var heads, grounds []fact.Fact
	if err := x.Valuations(Compile(mustRule(t, `P(x) :- E(x,y).`)), -1, nil, nil, func(v *Valuation) error {
		h, err := head(v)
		if err != nil {
			return err
		}
		g, err := ground(v, AtomV("G", "y", "x"))
		heads, grounds = append(heads, h), append(grounds, g)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fact.SortFacts(heads)
	fact.SortFacts(grounds)
	if fmt.Sprint(heads) != "[P(a) P(c)]" || fmt.Sprint(grounds) != "[G(b,a) G(d,c)]" {
		t.Errorf("retained facts aliased the live environment: heads %v, grounds %v", heads, grounds)
	}
}

func TestValuationsErrorPropagates(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c)`))
	c := Compile(mustRule(t, `P(x) :- E(x,y).`))
	sentinel := fmt.Errorf("stop")
	calls := 0
	if err := x.Valuations(c, -1, nil, nil, func(*Valuation) error { calls++; return sentinel }); err != sentinel {
		t.Errorf("emit error not propagated: %v", err)
	}
	if calls != 1 {
		t.Errorf("enumeration continued after the error: %d calls", calls)
	}
	// An unsafe rule compiles; its unbound variable is an enumeration error.
	unsafe := Compile(Rule{Head: AtomV("P", "x"), Pos: []Atom{AtomV("E", "x", "y")}, Neg: []Atom{AtomV("F", "w")}})
	if err := x.Valuations(unsafe, -1, nil, nil, func(*Valuation) error { return nil }); err == nil {
		t.Error("unbound variable in a negated atom was not reported")
	}
}

// Valuation count of a single-atom rule equals the relation size; the
// rule P(x,y) :- E(x,y) has exactly one valuation per fact.
func TestValuationsCountProperty(t *testing.T) {
	c := Compile(mustRule(t, `P(x,y) :- E(x,y).`))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := fact.NewInstance()
		n := rng.Intn(10)
		for k := 0; k < n; k++ {
			data.Add(fact.New("E",
				fact.Value(fmt.Sprintf("v%d", rng.Intn(5))),
				fact.Value(fmt.Sprintf("v%d", rng.Intn(5)))))
		}
		count := 0
		if err := IndexInstance(data).Valuations(c, -1, nil, nil, func(*Valuation) error { count++; return nil }); err != nil {
			return false
		}
		return count == data.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMultipleOutputRelations(t *testing.T) {
	p := MustParseProgram(`
		A(x) :- E(x,y).
		B(y) :- E(x,y).
	`)
	q, err := NewQuery(p, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Eval(fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(fact.MustParseInstance(`A(a) B(b)`)) {
		t.Errorf("multi-output query = %v", out)
	}
}

func TestConstantInHead(t *testing.T) {
	p := MustParseProgram(`O(x, "tag") :- E(x,y).`)
	out, err := p.Fixpoint(fact.MustParseInstance(`E(a,b)`), FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has(fact.New("O", "a", "tag")) {
		t.Errorf("constant head not derived: %v", out)
	}
}

func TestSelfJoinRule(t *testing.T) {
	// The same relation twice in one body with shared variables.
	p := MustParseProgram(`O(x) :- E(x,y), E(y,x).`)
	out, err := p.Fixpoint(fact.MustParseInstance(`E(a,b) E(b,a) E(c,d)`), FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has(fact.New("O", "a")) || !out.Has(fact.New("O", "b")) || out.Has(fact.New("O", "c")) {
		t.Errorf("self-join wrong: %v", out)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	// R(x,x) matches only facts with equal arguments.
	p := MustParseProgram(`O(x) :- E(x,x).`)
	out, err := p.Fixpoint(fact.MustParseInstance(`E(a,a) E(a,b)`), FixpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has(fact.New("O", "a")) || out.Len() != 3 {
		t.Errorf("repeated-variable matching wrong: %v", out)
	}
}
