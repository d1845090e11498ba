package fact

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Fact keys are injective: distinct facts have distinct keys, equal
// facts equal keys — for random relation names and arguments.
func TestFactKeyInjectiveProperty(t *testing.T) {
	rels := []string{"E", "R", "Ea", "E_1"}
	vals := []Value{"a", "b", "ab", "a_b", "x1"}
	randFact := func(rng *rand.Rand) Fact {
		rel := rels[rng.Intn(len(rels))]
		n := 1 + rng.Intn(3)
		args := make([]Value, n)
		for i := range args {
			args[i] = vals[rng.Intn(len(vals))]
		}
		return New(rel, args...)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randFact(rng), randFact(rng)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Compare is a total order consistent with Equal.
func TestFactCompareTotalOrder(t *testing.T) {
	facts := []Fact{
		New("E", "a"), New("E", "a", "b"), New("E", "b", "a"),
		New("F", "a"), New("E", "a", "a"), New("E", "ab"),
	}
	for _, a := range facts {
		for _, b := range facts {
			ab, ba := a.Compare(b), b.Compare(a)
			if ab != -ba {
				t.Errorf("Compare(%v,%v)=%d but Compare(%v,%v)=%d", a, b, ab, b, a, ba)
			}
			if (ab == 0) != a.Equal(b) {
				t.Errorf("Compare/Equal inconsistent for %v, %v", a, b)
			}
			for _, c := range facts {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("transitivity broken: %v ≤ %v ≤ %v", a, b, c)
				}
			}
		}
	}
}

// Map distributes over union: (I ∪ J).Map(h) = I.Map(h) ∪ J.Map(h).
func TestMapDistributesOverUnion(t *testing.T) {
	h := Hom{"v0": "x", "v1": "x", "v2": "y"}
	f := func(seedA, seedB int64) bool {
		a := randomGraph(rand.New(rand.NewSource(seedA)), 4, 4)
		b := randomGraph(rand.New(rand.NewSource(seedB)), 4, 4)
		return a.Union(b).Map(h).Equal(a.Map(h).Union(b.Map(h)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Components are invariant under value renaming: the component count
// of I equals that of any injective image of I.
func TestComponentsGenericProperty(t *testing.T) {
	perm := Hom{"v0": "p3", "v1": "p0", "v2": "p4", "v3": "p1", "v4": "p2", "v5": "p5"}
	f := func(seed int64) bool {
		i := randomGraph(rand.New(rand.NewSource(seed)), 6, 6)
		return len(Components(i)) == len(Components(i.Map(perm)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// InducedSubinstance is idempotent and monotone in C.
func TestInducedSubinstanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i := randomGraph(rng, 5, 6)
		c := make(ValueSet)
		for v := range i.ADom() {
			if rng.Intn(2) == 0 {
				c.Add(v)
			}
		}
		j := InducedSubinstance(i, c)
		// Idempotence.
		if !InducedSubinstance(j, c).Equal(j) {
			return false
		}
		// Monotonicity in C: a larger C yields a superset.
		bigger := i.ADom()
		bigger.AddAll(c)
		return j.SubsetOf(InducedSubinstance(i, bigger))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
