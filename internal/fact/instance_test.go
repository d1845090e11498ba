package fact

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func inst(facts ...string) *Instance {
	i := NewInstance()
	for _, s := range facts {
		i.Add(MustParseFact(s))
	}
	return i
}

func TestInstanceSetSemantics(t *testing.T) {
	i := NewInstance()
	if !i.Add(New("E", "a", "b")) {
		t.Error("first Add returned false")
	}
	if i.Add(New("E", "a", "b")) {
		t.Error("duplicate Add returned true")
	}
	if i.Len() != 1 {
		t.Errorf("Len = %d, want 1", i.Len())
	}
	if !i.Has(New("E", "a", "b")) {
		t.Error("Has missing inserted fact")
	}
	if !i.Remove(New("E", "a", "b")) {
		t.Error("Remove of present fact returned false")
	}
	if i.Remove(New("E", "a", "b")) {
		t.Error("Remove of absent fact returned true")
	}
	if !i.Empty() {
		t.Error("instance not empty after removal")
	}
}

func TestInstanceAlgebra(t *testing.T) {
	i := inst("E(a,b)", "E(b,c)")
	j := inst("E(b,c)", "E(c,d)")

	if got := i.Union(j); got.Len() != 3 {
		t.Errorf("Union size = %d, want 3", got.Len())
	}
	if got := i.Minus(j); got.Len() != 1 || !got.Has(New("E", "a", "b")) {
		t.Errorf("Minus = %v, want {E(a,b)}", got)
	}
	if got := i.Intersect(j); got.Len() != 1 || !got.Has(New("E", "b", "c")) {
		t.Errorf("Intersect = %v, want {E(b,c)}", got)
	}
	if i.SubsetOf(j) {
		t.Error("non-subset reported SubsetOf")
	}
	if !inst("E(a,b)").SubsetOf(i) {
		t.Error("subset not reported SubsetOf")
	}
	if !i.Equal(inst("E(b,c)", "E(a,b)")) {
		t.Error("order-insensitive Equal failed")
	}
}

func TestInstanceADomAndSchema(t *testing.T) {
	i := inst("E(a,b)", "R(b,c,d)")
	ad := i.ADom()
	if len(ad) != 4 {
		t.Errorf("ADom size = %d, want 4", len(ad))
	}
	s := i.Schema()
	if ar, _ := s.Arity("E"); ar != 2 {
		t.Errorf("E arity = %d, want 2", ar)
	}
	if ar, _ := s.Arity("R"); ar != 3 {
		t.Errorf("R arity = %d, want 3", ar)
	}
}

func TestInstanceRestrict(t *testing.T) {
	i := inst("E(a,b)", "R(b,c,d)", "S(x)")
	sigma := MustSchema(map[string]int{"E": 2, "S": 1})
	got := i.Restrict(sigma)
	if got.Len() != 2 || !got.Has(New("E", "a", "b")) || !got.Has(New("S", "x")) {
		t.Errorf("Restrict = %v", got)
	}
	// A relation with the right name but wrong arity is not covered.
	badArity := MustSchema(map[string]int{"E": 3})
	if got := i.Restrict(badArity); !got.Empty() {
		t.Errorf("Restrict with mismatched arity = %v, want empty", got)
	}
	if got := i.RestrictRel("R"); got.Len() != 1 {
		t.Errorf("RestrictRel(R) = %v", got)
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	i := inst("E(a,b)")
	c := i.Clone()
	c.Add(New("E", "x", "y"))
	if i.Len() != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestInstanceFactsSorted(t *testing.T) {
	i := inst("E(b,c)", "E(a,b)", "A(z)")
	fs := i.Facts()
	want := []string{"A(z)", "E(a,b)", "E(b,c)"}
	for n, f := range fs {
		if f.String() != want[n] {
			t.Errorf("Facts()[%d] = %v, want %s", n, f, want[n])
		}
	}
	if i.String() != "{A(z), E(a,b), E(b,c)}" {
		t.Errorf("String() = %q", i.String())
	}
}

func TestEachIDsWalksEveryFact(t *testing.T) {
	i := inst("E(b,c)", "E(a,b)", "A(z)")
	got := NewInstance()
	i.EachIDs(func(rel ID, args []ID) bool {
		got.AddIDs(rel, args)
		return true
	})
	if !got.Equal(i) {
		t.Errorf("EachIDs walked %v, want %v", got, i)
	}
	n := 0
	i.EachIDs(func(ID, []ID) bool { n++; return false })
	if n != 1 {
		t.Errorf("EachIDs went on after false: %d calls", n)
	}
}

// TestReset: a reset instance reads as a new one through every
// accessor, takes the same facts back as new, and — its columns kept —
// refills allocating only the index keys of wide tuples.
func TestReset(t *testing.T) {
	facts := []string{"E(a,b)", "E(b,c)", "A(z)", "T(a,b,c)", "E(a)"}
	i := inst(facts...)
	i.Reset()
	empty := NewInstance()
	if i.Len() != 0 || !i.Empty() || len(i.Schema()) != 0 || len(i.ADom()) != 0 || len(i.Facts()) != 0 ||
		!i.Equal(empty) || !empty.Equal(i) || i.String() != empty.String() {
		t.Errorf("reset instance reads %v (len %d, schema %v, adom %v), want %v", i, i.Len(), i.Schema(), i.ADom(), empty)
	}
	i.EachIDs(func(rel ID, args []ID) bool {
		t.Errorf("EachIDs walked %v%v on a reset instance", Symbol(rel), args)
		return true
	})
	if rows := i.Rows(Intern("E"), 2); len(rows) != 0 {
		t.Errorf("Rows(E/2) = %v on a reset instance", rows)
	}
	for _, f := range facts {
		if !i.Add(MustParseFact(f)) {
			t.Errorf("re-adding %s after Reset reported it present", f)
		}
	}
	if want := inst(facts...); !i.Equal(want) {
		t.Errorf("refilled instance %v, want %v", i, want)
	}
	parsed, err := ParseFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		i.Reset()
		for _, f := range parsed {
			i.Add(f)
		}
	}); n != 1 { // T(a,b,c)'s packed key: a wide tuple's index key is a string
		t.Errorf("reset and refill: %v allocations, want 1", n)
	}
}

func TestEachTuple(t *testing.T) {
	ab := []ID{Intern("a"), Intern("b")}
	var got []string
	EachTuple(ab, 2, func(args []ID) bool {
		got = append(got, FromIDs(InternString("T"), args).String())
		return true
	})
	if want := []string{"T(a,a)", "T(a,b)", "T(b,a)", "T(b,b)"}; !slices.Equal(got, want) {
		t.Errorf("2 values arity 2: %v, want %v", got, want)
	}
	n := 0
	EachTuple(nil, 1, func([]ID) bool { n++; return true })
	EachTuple(ab, 3, func([]ID) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("no values gave tuples, or the walk went on after false: %d calls", n)
	}
}

func TestInstanceMap(t *testing.T) {
	i := inst("E(a,b)", "E(b,c)")
	got := i.Map(Hom{"a": "b"})
	// E(a,b) -> E(b,b); E(b,c) -> E(b,c) since b unmapped stays b.
	if got.Len() != 2 || !got.Has(New("E", "b", "b")) || !got.Has(New("E", "b", "c")) {
		t.Errorf("Map = %v", got)
	}
	// Collapsing map can shrink the instance.
	collapsed := inst("E(a,b)", "E(c,d)").Map(Hom{"c": "a", "d": "b"})
	if collapsed.Len() != 1 {
		t.Errorf("collapsing Map size = %d, want 1", collapsed.Len())
	}
}

func TestDomainDistinctAndDisjoint(t *testing.T) {
	i := inst("E(a,b)")
	cases := []struct {
		j                  *Instance
		distinct, disjoint bool
	}{
		{inst("E(a,c)"), true, false},            // one new value -> distinct, not disjoint
		{inst("E(c,d)"), true, true},             // all new -> both
		{inst("E(a,b)"), false, false},           // no new values
		{inst("E(a,c)", "E(b,a)"), false, false}, // E(b,a) has no new value
		{inst("E(c,d)", "E(d,e)"), true, true},
		{NewInstance(), true, true}, // empty J is vacuously both
	}
	for n, c := range cases {
		if got := DomainDistinct(c.j, i); got != c.distinct {
			t.Errorf("case %d: DomainDistinct = %v, want %v", n, got, c.distinct)
		}
		if got := DomainDisjoint(c.j, i); got != c.disjoint {
			t.Errorf("case %d: DomainDisjoint = %v, want %v", n, got, c.disjoint)
		}
	}
}

func TestDomainDisjointImpliesDistinct(t *testing.T) {
	// Property from Section 3.1: every domain-disjoint J (with nonempty
	// facts, which is guaranteed by arity >= 1) is also domain-distinct.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		i := randomGraph(rng, 5, 6)
		j := randomGraphValues(rng, 5, 6, "n") // values n0..n4 distinct from v0..v4
		if DomainDisjoint(j, i) && !DomainDistinct(j, i) {
			t.Fatalf("J=%v disjoint from I=%v but not distinct", j, i)
		}
	}
}

func TestDomainDistinctDisjointFact(t *testing.T) {
	i := inst("E(a,b)")
	if !DomainDistinctFact(New("E", "a", "c"), i) {
		t.Error("E(a,c) should be domain distinct from {E(a,b)}")
	}
	if DomainDisjointFact(New("E", "a", "c"), i) {
		t.Error("E(a,c) should not be domain disjoint from {E(a,b)}")
	}
	if !DomainDisjointFact(New("E", "c", "d"), i) {
		t.Error("E(c,d) should be domain disjoint from {E(a,b)}")
	}
	if DomainDistinctFact(New("E", "b", "a"), i) {
		t.Error("E(b,a) should not be domain distinct from {E(a,b)}")
	}
}

func TestInducedSubinstance(t *testing.T) {
	i := inst("E(a,b)", "E(b,c)", "E(c,d)")
	got := InducedSubinstance(i, NewValueSet("a", "b", "c"))
	want := inst("E(a,b)", "E(b,c)")
	if !got.Equal(want) {
		t.Errorf("InducedSubinstance = %v, want %v", got, want)
	}
	if !IsInducedSubinstance(want, i) {
		t.Error("want should be an induced subinstance of i")
	}
	// {E(a,b), E(c,d)} is induced (contains all facts over {a,b,c,d}
	// except E(b,c) — but E(b,c) is over {b,c} ⊆ {a,b,c,d}), so NOT induced.
	if IsInducedSubinstance(inst("E(a,b)", "E(c,d)"), i) {
		t.Error("{E(a,b),E(c,d)} is not induced: E(b,c) over its adom is missing")
	}
}

// Lemma 3.2 building block: J is an induced subinstance of I iff
// I \ J is domain distinct from J.
func TestInducedIffComplementDomainDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		i := randomGraph(rng, 5, 7)
		// random sub-adom
		var c ValueSet = make(ValueSet)
		for v := range i.ADom() {
			if rng.Intn(2) == 0 {
				c.Add(v)
			}
		}
		j := InducedSubinstance(i, c)
		if !DomainDistinct(i.Minus(j), j) {
			t.Fatalf("I\\J not domain distinct from J for I=%v C=%v", i, c.Sorted())
		}
	}
}

func TestInstanceUnionProperties(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomGraph(rand.New(rand.NewSource(seedA)), 4, 5)
		b := randomGraph(rand.New(rand.NewSource(seedB)), 4, 5)
		u := a.Union(b)
		// Union is commutative, superset of both, and idempotent.
		return u.Equal(b.Union(a)) &&
			a.SubsetOf(u) && b.SubsetOf(u) &&
			u.Union(u).Equal(u) &&
			a.Minus(b).Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomGraph returns a random instance over E with n values v0..v(n-1)
// and m random edges.
func randomGraph(rng *rand.Rand, n, m int) *Instance {
	return randomGraphValues(rng, n, m, "v")
}

func randomGraphValues(rng *rand.Rand, n, m int, prefix string) *Instance {
	i := NewInstance()
	vals := make([]Value, n)
	for k := range vals {
		vals[k] = Value(prefix + string(rune('0'+k)))
	}
	for k := 0; k < m; k++ {
		i.Add(New("E", vals[rng.Intn(n)], vals[rng.Intn(n)]))
	}
	return i
}
