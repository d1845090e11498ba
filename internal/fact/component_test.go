package fact

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestComponentsBasic(t *testing.T) {
	i := inst("E(a,b)", "E(b,c)", "E(x,y)")
	cs := Components(i)
	if len(cs) != 2 {
		t.Fatalf("got %d components, want 2: %v", len(cs), cs)
	}
	if !cs[0].Equal(inst("E(a,b)", "E(b,c)")) {
		t.Errorf("component 0 = %v", cs[0])
	}
	if !cs[1].Equal(inst("E(x,y)")) {
		t.Errorf("component 1 = %v", cs[1])
	}
}

func TestComponentsEmpty(t *testing.T) {
	if cs := Components(NewInstance()); len(cs) != 0 {
		t.Errorf("empty instance has %d components, want 0", len(cs))
	}
}

func TestComponentsSingleFact(t *testing.T) {
	cs := Components(inst("E(a,a)"))
	if len(cs) != 1 || cs[0].Len() != 1 {
		t.Errorf("Components({E(a,a)}) = %v", cs)
	}
}

func TestComponentsCrossRelation(t *testing.T) {
	// Facts of different relations sharing a value belong to one component.
	i := inst("E(a,b)", "R(b,c,d)", "S(z)")
	cs := Components(i)
	if len(cs) != 2 {
		t.Fatalf("got %d components, want 2", len(cs))
	}
}

func TestComponentsChainViaMiddlePosition(t *testing.T) {
	// Connectivity uses every argument position, not just the first.
	i := inst("T(a,m,b)", "T(c,m,d)")
	if cs := Components(i); len(cs) != 1 {
		t.Errorf("facts sharing middle value split into %d components", len(cs))
	}
}

func TestComponentsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		i := randomGraph(rng, 6, 5)
		cs := Components(i)

		// Components partition I.
		u := NewInstance()
		total := 0
		for _, c := range cs {
			total += c.Len()
			u.AddAll(c)
		}
		if total != i.Len() || !u.Equal(i) {
			t.Fatalf("components do not partition %v: %v", i, cs)
		}

		// Pairwise adom-disjoint, each a valid component.
		for a := range cs {
			if !isComponent(cs[a], i) {
				t.Fatalf("returned non-component %v of %v", cs[a], i)
			}
			for b := a + 1; b < len(cs); b++ {
				if !cs[a].ADom().Disjoint(cs[b].ADom()) {
					t.Fatalf("components %v and %v share values", cs[a], cs[b])
				}
			}
		}
	}
}

func TestIsComponentRejects(t *testing.T) {
	i := inst("E(a,b)", "E(b,c)", "E(x,y)")
	// Non-minimal union of two components.
	if isComponent(i, i) {
		t.Error("whole two-component instance accepted as a component")
	}
	// Subset that shares values with the rest.
	if isComponent(inst("E(a,b)"), i) {
		t.Error("subset sharing value b with E(b,c) accepted as component")
	}
	// Empty set.
	if isComponent(NewInstance(), i) {
		t.Error("empty set accepted as component")
	}
	// Not a subset of I.
	if isComponent(inst("E(q,q)"), i) {
		t.Error("non-subset accepted as component")
	}
	// A genuine component.
	if !isComponent(inst("E(x,y)"), i) {
		t.Error("genuine component rejected")
	}
}

// co(I ∪ J) = co(I) ∪ co(J) for domain-disjoint I, J (used in Thm 5.3).
func TestComponentsOfDisjointUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		i := randomGraph(rng, 4, 4)
		j := randomGraphValues(rng, 4, 4, "w")
		if !j.ADom().Disjoint(i.ADom()) {
			t.Fatal("generator broke disjointness")
		}
		all := Components(i.Union(j))
		want := len(Components(i)) + len(Components(j))
		if len(all) != want {
			t.Fatalf("co(I∪J) has %d components, want %d", len(all), want)
		}
	}
}

// TestComponentsAllocs gates the cost of Components in the number of
// components: over 2,000 one-edge components it allocates a bounded
// number of objects a fact, so ordering the components is not
// quadratic in their number.
func TestComponentsAllocs(t *testing.T) {
	i := NewInstance()
	for k := 0; k < 2000; k++ {
		i.Add(New("E", Value(fmt.Sprintf("a%d", k)), Value(fmt.Sprintf("b%d", k))))
	}
	if n := len(Components(i)); n != 2000 {
		t.Fatalf("%d components, want 2000", n)
	}
	if per := testing.AllocsPerRun(3, func() { Components(i) }) / 2000; per > 16 {
		t.Errorf("Components allocates %.1f a fact over 2,000 components, want <= 16", per)
	}
}

// TestDynamicIndexAgreesWithStatic feeds the same instance to the index
// in a random order and checks every fact ends at the root Components
// implies, its component's minimum value: the order facts arrive in
// must not matter, or replicas of the router state would diverge.
func TestDynamicIndexAgreesWithStatic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			i := randomGraphValues(rng, 7, 8, "d")
			facts := i.Facts()
			rng.Shuffle(len(facts), func(a, b int) { facts[a], facts[b] = facts[b], facts[a] })
			x := NewComponentIndex()
			for _, f := range facts {
				x.Add(f, nil)
			}
			for _, c := range Components(i) {
				min := c.ADom().Sorted()[0]
				for _, f := range c.Facts() {
					if got := Symbol(x.Root(f.ArgIDs()[0])); got != min {
						t.Fatalf("seed %d trial %d: root of %v is %s, component minimum %s", seed, trial, f, got, min)
					}
				}
			}
		}
	}
}

// TestUnionKeepsMin pins the migration invariant: a merge keeps the
// root of the component holding the overall minimum, so the survivor's
// home (a function of its root) never changes when it absorbs another,
// and the report names the absorbed root with its facts before they
// move.
func TestUnionKeepsMin(t *testing.T) {
	x := NewComponentIndex()
	x.Add(New("E", "b", "c"), nil)
	x.Add(New("E", "x", "y"), nil)
	var reports []string
	report := func(root, absorbed ID, facts *Instance) {
		reports = append(reports, fmt.Sprintf("%s<-%s%v", Symbol(root), Symbol(absorbed), facts))
	}
	root, added := x.Add(New("E", "c", "x"), report)
	if !added || Symbol(root) != "b" {
		t.Fatalf("Add(E(c,x)) = %s, %v; want root b, added", Symbol(root), added)
	}
	if want := []string{"b<-x{E(x,y)}"}; !slices.Equal(reports, want) {
		t.Errorf("merge reports %q, want %q", reports, want)
	}
	if _, added := x.Add(New("E", "c", "x"), report); added {
		t.Error("a fact the index holds must be reported as already held")
	}
	x.Add(New("E", "b", "y"), report)
	if len(reports) != 1 {
		t.Errorf("a fact inside one component merged again: %q", reports)
	}
	// A fresh smaller value takes the root; the survivor reported is a.
	x.Add(New("E", "a", "y"), report)
	if want := "a<-b{E(b,c), E(b,y), E(c,x), E(x,y)}"; len(reports) != 2 || reports[1] != want {
		t.Errorf("merge reports %q, want second %q", reports, want)
	}
}

// TestRemoveNeverSplits: removing the fact that joined two values
// leaves them in one component. The index only coarsens co(I).
func TestRemoveNeverSplits(t *testing.T) {
	x := NewComponentIndex()
	x.Add(New("E", "a", "b"), nil)
	x.Add(New("E", "b", "c"), nil)
	if root, held := x.Remove(New("E", "a", "b")); !held || Symbol(root) != "a" {
		t.Fatalf("Remove(E(a,b)) = %s, %v; want root a, held", Symbol(root), held)
	}
	if _, held := x.Remove(New("E", "a", "b")); held {
		t.Error("a removed fact is still held")
	}
	if Symbol(x.Root(Intern("c"))) != "a" {
		t.Error("removal split the component")
	}
}

// TestUnseenLeavesIndexEmpty: root lookups and removals of facts the
// index never held record nothing, so client retracts of unknown
// values cannot grow it.
func TestUnseenLeavesIndexEmpty(t *testing.T) {
	x := NewComponentIndex()
	if r := x.Root(Intern("u1")); Symbol(r) != "u1" {
		t.Errorf("an unseen value is its own root, got %s", Symbol(r))
	}
	if _, held := x.Remove(New("E", "u2", "u3")); held {
		t.Error("an unseen fact was held")
	}
	if len(x.parent) != 0 || len(x.facts) != 0 {
		t.Errorf("lookups grew the index: %d values, %d components", len(x.parent), len(x.facts))
	}
}
