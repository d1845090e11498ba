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
	if got := i.intersect(j); got.Len() != 1 || !got.Has(New("E", "b", "c")) {
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
	s := i.schema()
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

// TestEachIDsFirstInsertOrder: the directory walks relations in the
// order the instance first held them — not by name, arity or row count
// — and two walks of an unchanged instance agree.
func TestEachIDsFirstInsertOrder(t *testing.T) {
	i := inst("T(a,b,c)", "E(b,c)", "A(z)", "E(a)", "E(a,b)", "A(y)")
	i.Remove(MustParseFact("A(z)")) // a swap-delete inside a column leaves the directory alone
	walk := func() []string {
		var got []string
		i.EachIDs(func(rel ID, args []ID) bool {
			got = append(got, FromIDs(rel, args).String())
			return true
		})
		return got
	}
	want := []string{"T(a,b,c)", "E(b,c)", "E(a,b)", "A(y)", "E(a)"}
	if got := walk(); !slices.Equal(got, want) {
		t.Errorf("EachIDs walked %v, want %v", got, want)
	}
	if a, b := walk(), walk(); !slices.Equal(a, b) {
		t.Errorf("two walks of an unchanged instance differ: %v, %v", a, b)
	}
}

// TestTwoAritiesTwoColumns: facts of one relation name at two arities
// live in two columns, so no operation confuses E(a) with E(a,b) — the
// same IDs under different arities — or drops one with the other.
func TestTwoAritiesTwoColumns(t *testing.T) {
	unary, binary := MustParseFact("E(a)"), MustParseFact("E(a,a)")
	i := NewInstance(unary, binary, MustParseFact("E(b)"))
	if i.Len() != 3 || !i.Has(unary) || !i.Has(binary) || len(i.Rel("E")) != 3 {
		t.Fatalf("Add: %v", i)
	}
	c := i.Clone()
	if !i.Remove(unary) || !i.Has(binary) || i.Has(unary) || i.Len() != 2 {
		t.Errorf("Remove(E(a)): %v", i)
	}
	if !c.Has(unary) || c.Len() != 3 {
		t.Errorf("the clone lost E(a) with the original: %v", c)
	}
	if got := c.Minus(inst("E(a)")); !got.Equal(inst("E(a,a)", "E(b)")) {
		t.Errorf("Minus {E(a)} = %v", got)
	}
	if got := c.intersect(inst("E(a,a)", "E(b,b)")); !got.Equal(inst("E(a,a)")) {
		t.Errorf("Intersect {E(a,a), E(b,b)} = %v", got)
	}
	tab := func(arity int, vals ...Value) Table {
		tb := Table{Rel: InternString("E"), Arity: arity, Index: NewTupleIndex()}
		for r := 0; r*arity < len(vals); r++ {
			for _, v := range vals[r*arity : (r+1)*arity] {
				tb.Args = append(tb.Args, Intern(v))
			}
			tb.Index.put(tb.Args[r*arity:(r+1)*arity], tb.Args, int32(r))
		}
		return tb
	}
	f := FromTables([]Table{tab(1, "a", "b"), tab(2, "a", "a")})
	if !f.Equal(c) || !c.Equal(f) || len(f.Rows(InternString("E"), 1)) != 2 || len(f.Rows(InternString("E"), 2)) != 2 {
		t.Errorf("FromTables = %v, want %v", f, c)
	}
}

// TestReset: a reset instance reads as a new one through every
// accessor, takes the same facts back as new, and — its columns kept —
// refills without allocating, wide tuples included.
func TestReset(t *testing.T) {
	facts := []string{"E(a,b)", "E(b,c)", "A(z)", "T(a,b,c)", "E(a)"}
	i := inst(facts...)
	i.Reset()
	empty := NewInstance()
	if i.Len() != 0 || !i.Empty() || len(i.schema()) != 0 || len(i.ADom()) != 0 || len(i.Facts()) != 0 ||
		!i.Equal(empty) || !empty.Equal(i) || i.String() != empty.String() {
		t.Errorf("reset instance reads %v (len %d, schema %v, adom %v), want %v", i, i.Len(), i.schema(), i.ADom(), empty)
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
	}); n != 0 {
		t.Errorf("reset and refill: %v allocations, want 0", n)
	}
}

// TestFromTables: an instance built by taking tables over holds their
// rows without a copy, behaves as one built by Add — swap-delete
// removal, re-adds, clones and set algebra keep its key index
// consistent — and skips an empty table.
func TestFromTables(t *testing.T) {
	table := func(rel string, rows ...[]Value) Table {
		tab := Table{Rel: InternString(rel), Arity: len(rows[0]), Index: NewTupleIndex()}
		for r, row := range rows {
			for _, v := range row {
				tab.Args = append(tab.Args, Intern(v))
			}
			tab.Index.put(tab.Args[r*tab.Arity:(r+1)*tab.Arity], tab.Args, int32(r))
		}
		return tab
	}
	e := table("E", []Value{"a", "b"}, []Value{"b", "c"}, []Value{"c", "d"})
	w := table("W", []Value{"a", "b", "c"}, []Value{"b", "c", "d"})
	empty := Table{Rel: InternString("Z"), Arity: 1, Index: NewTupleIndex()}
	i := FromTables([]Table{e, w, empty})
	want := inst("E(a,b)", "E(b,c)", "E(c,d)", "W(a,b,c)", "W(b,c,d)")
	if !i.Equal(want) || !want.Equal(i) || i.Len() != 5 || len(i.schema()) != 2 {
		t.Fatalf("FromTables = %v (len %d, schema %v), want %v", i, i.Len(), i.schema(), want)
	}
	if rows := i.Rows(InternString("E"), 2); &rows[0] != &e.Args[0] {
		t.Error("FromTables copied the rows it was handed")
	}
	c := i.Clone()
	for _, f := range []string{"E(a,b)", "W(a,b,c)"} { // first rows: the last moves into each hole
		if !i.Remove(MustParseFact(f)) || !want.Remove(MustParseFact(f)) {
			t.Fatalf("Remove(%s) reported it absent", f)
		}
	}
	for _, f := range []string{"E(a,b)", "E(d,e)", "W(c,d,e)", "Z(q)"} {
		if !i.Add(MustParseFact(f)) || !want.Add(MustParseFact(f)) {
			t.Fatalf("Add(%s) reported it present", f)
		}
	}
	if i.Add(MustParseFact("E(c,d)")) || i.Has(MustParseFact("W(a,b,c)")) {
		t.Error("a moved row or a removed one answers wrongly")
	}
	if !i.Equal(want) || !want.Equal(i) || !slices.Equal(FactStrings(i.Facts()), FactStrings(want.Facts())) {
		t.Errorf("after removes and adds: %v, want %v", i, want)
	}
	u := NewInstance()
	if u.AddAll(i) != want.Len() || !u.Equal(want) {
		t.Errorf("AddAll of the taken-over instance = %v, want %v", u, want)
	}
	if !c.Equal(inst("E(a,b)", "E(b,c)", "E(c,d)", "W(a,b,c)", "W(b,c,d)")) {
		t.Errorf("a clone taken before the mutations reads %v", c)
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

// Section 3.1 over the probe of I: J is domain distinct from I when
// every fact has a fresh value, domain disjoint when every value of
// every fact is fresh.
func freshKinds(j, i *Instance) (distinct, disjoint bool) {
	known := i.Known()
	distinct, disjoint = true, true
	j.Each(func(f Fact) bool {
		n := Fresh(f, known)
		distinct = distinct && n > 0
		disjoint = disjoint && n == f.Arity()
		return true
	})
	return distinct, disjoint
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
		distinct, disjoint := freshKinds(c.j, i)
		if distinct != c.distinct {
			t.Errorf("case %d: domain distinct = %v, want %v", n, distinct, c.distinct)
		}
		if disjoint != c.disjoint {
			t.Errorf("case %d: domain disjoint = %v, want %v", n, disjoint, c.disjoint)
		}
	}
}

func TestDomainDistinctDisjointFact(t *testing.T) {
	known := inst("E(a,b)").Known()
	cases := []struct {
		f                  Fact
		distinct, disjoint bool
	}{
		{New("E", "a", "c"), true, false},
		{New("E", "c", "d"), true, true},
		{New("E", "b", "a"), false, false},
		{New("E", "c", "c"), true, true},
	}
	for _, c := range cases {
		n := Fresh(c.f, known)
		if distinct := n > 0; distinct != c.distinct {
			t.Errorf("%v domain distinct from {E(a,b)} = %v, want %v", c.f, distinct, c.distinct)
		}
		if disjoint := n == c.f.Arity(); disjoint != c.disjoint {
			t.Errorf("%v domain disjoint from {E(a,b)} = %v, want %v", c.f, disjoint, c.disjoint)
		}
	}
}

// Fresh counts argument positions the probe does not know, so a
// repeated fresh value counts at each position: E(c,c) is all fresh.
// A probe sees the instance as it was built, removals included.
func TestFreshAgainstKnown(t *testing.T) {
	i := inst("E(a,b)", "E(b,x)")
	i.Remove(New("E", "b", "x"))
	known := i.Known()
	for f, want := range map[string]int{"E(a,b)": 0, "E(b,a)": 0, "E(a,c)": 1, "E(c,d)": 2, "E(c,c)": 2, "E(x,a)": 1, "R(c)": 1} {
		if got := Fresh(MustParseFact(f), known); got != want {
			t.Errorf("Fresh(%s) against {E(a,b)} = %d, want %d", f, got, want)
		}
	}
	i.Add(New("E", "c", "d"))
	if got := Fresh(New("E", "c", "d"), known); got != 2 {
		t.Errorf("a probe saw a later Add: Fresh(E(c,d)) = %d, want 2", got)
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
		// Domain distinct (Section 3.1): every fact of I \ J has a
		// value outside adom(J).
		ad := j.ADom()
		i.Minus(j).Each(func(f Fact) bool {
			if len(f.ADom().Minus(ad)) == 0 {
				t.Fatalf("I\\J not domain distinct from J: %v for I=%v C=%v", f, i, c.Sorted())
			}
			return true
		})
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
			a.Minus(b).Union(a.intersect(b)).Equal(a)
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

// EachNewTuple visits exactly the tuples of EachTuple that hold a value
// of fresh, in the same order, for every subset fresh of vals.
func TestEachNewTuple(t *testing.T) {
	vals := []ID{Intern("nt-a"), Intern("nt-b"), Intern("nt-c"), Intern("nt-d")}
	slices.Sort(vals)
	for arity := 0; arity <= 3; arity++ {
		for mask := 0; mask < 1<<len(vals); mask++ {
			var fresh []ID
			for i, v := range vals {
				if mask&(1<<i) != 0 {
					fresh = append(fresh, v)
				}
			}
			var want, got [][]ID
			EachTuple(vals, arity, func(args []ID) bool {
				if slices.ContainsFunc(args, func(v ID) bool { return slices.Contains(fresh, v) }) {
					want = append(want, slices.Clone(args))
				}
				return true
			})
			EachNewTuple(vals, fresh, arity, func(args []ID) bool {
				got = append(got, slices.Clone(args))
				return true
			})
			if !slices.EqualFunc(got, want, slices.Equal[[]ID]) {
				t.Errorf("arity %d, fresh %v: got %v, want %v", arity, fresh, got, want)
			}
		}
	}
}
