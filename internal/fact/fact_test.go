package fact

import (
	"strings"
	"testing"
)

func TestNewFact(t *testing.T) {
	f := New("E", "a", "b")
	if f.Rel() != "E" {
		t.Errorf("Rel() = %q, want E", f.Rel())
	}
	if f.Arity() != 2 {
		t.Errorf("Arity() = %d, want 2", f.Arity())
	}
	if f.Arg(0) != "a" || f.Arg(1) != "b" {
		t.Errorf("args = %v, want [a b]", f.Args())
	}
	if got := f.String(); got != "E(a,b)" {
		t.Errorf("String() = %q, want E(a,b)", got)
	}
}

func TestNewFactPanicsOnNullary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no args should panic (nullary facts excluded)")
		}
	}()
	New("R")
}

func TestNewFactPanicsOnEmptyRel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with empty relation name should panic")
		}
	}()
	New("", "a")
}

func TestFactImmutable(t *testing.T) {
	args := []Value{"a", "b"}
	f := New("E", args...)
	args[0] = "mutated"
	if f.Arg(0) != "a" {
		t.Error("fact shares storage with constructor argument slice")
	}
	got := f.Args()
	got[0] = "mutated"
	if f.Arg(0) != "a" {
		t.Error("Args() exposes internal storage")
	}
}

func TestFactEqualAndCompare(t *testing.T) {
	a := New("E", "a", "b")
	b := New("E", "a", "b")
	c := New("E", "a", "c")
	d := New("F", "a", "b")
	if !a.Equal(b) {
		t.Error("identical facts not Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("distinct facts reported Equal")
	}
	if a.Compare(b) != 0 {
		t.Error("Compare of equal facts != 0")
	}
	if a.Compare(c) >= 0 {
		t.Error("E(a,b) should sort before E(a,c)")
	}
	if a.Compare(d) >= 0 {
		t.Error("relation E should sort before F")
	}
	if c.Compare(a) <= 0 {
		t.Error("Compare not antisymmetric")
	}
}

func TestFactKeyDistinguishes(t *testing.T) {
	pairs := [][2]Fact{
		{New("E", "a", "b"), New("E", "ab")},
		{New("E", "a", "b"), New("Ea", "b")},
		{New("E", "a", "b"), New("E", "b", "a")},
		{New("R", "x"), New("R", "x", "x")},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("facts %v and %v have colliding keys", p[0], p[1])
		}
	}
	if New("E", "a", "b").Key() != New("E", "a", "b").Key() {
		t.Error("equal facts have different keys")
	}
}

func TestFactADom(t *testing.T) {
	f := New("T", "a", "b", "a")
	ad := f.ADom()
	if len(ad) != 2 || !ad.Has("a") || !ad.Has("b") {
		t.Errorf("ADom = %v, want {a,b}", ad.Sorted())
	}
}

func TestFactMap(t *testing.T) {
	f := New("E", "a", "b")
	g := f.Map(Hom{"a": "x"})
	if g.String() != "E(x,b)" {
		t.Errorf("Map partial = %v, want E(x,b)", g)
	}
	h := f.Map(Hom{"a": "x", "b": "y"})
	if h.String() != "E(x,y)" {
		t.Errorf("Map total = %v, want E(x,y)", h)
	}
	if f.String() != "E(a,b)" {
		t.Error("Map mutated the receiver")
	}
}

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{"a"}, Tuple{"a"}, 0},
		{Tuple{"a"}, Tuple{"b"}, -1},
		{Tuple{"b"}, Tuple{"a"}, 1},
		{Tuple{"a"}, Tuple{"a", "a"}, -1},
		{Tuple{"a", "b"}, Tuple{"a", "c"}, -1},
	}
	for _, c := range cases {
		if got := c.a.compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueSetOps(t *testing.T) {
	s := NewValueSet("a", "b")
	u := NewValueSet("b", "c")
	if got := s.Minus(u); len(got) != 1 || !got.Has("a") {
		t.Errorf("Minus = %v, want {a}", got.Sorted())
	}
	if s.Disjoint(u) {
		t.Error("{a,b} and {b,c} reported disjoint")
	}
	if !s.Disjoint(NewValueSet("x", "y")) {
		t.Error("{a,b} and {x,y} reported non-disjoint")
	}
	if !s.Equal(NewValueSet("b", "a")) {
		t.Error("order-insensitive equality failed")
	}
	if s.Equal(u) {
		t.Error("unequal sets reported Equal")
	}
	sorted := NewValueSet("c", "a", "b").Sorted()
	if strings.Join([]string{string(sorted[0]), string(sorted[1]), string(sorted[2])}, "") != "abc" {
		t.Errorf("Sorted = %v, want [a b c]", sorted)
	}
}
