package fact

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestFindHomomorphismBasic(t *testing.T) {
	// A path of length 2 maps homomorphically onto a single loop edge.
	path := inst("E(a,b)", "E(b,c)")
	loop := inst("E(x,x)")
	h, ok := findHomomorphism(path, loop, false)
	if !ok {
		t.Fatal("no homomorphism from path to loop found")
	}
	if !IsHomomorphism(h, path, loop) {
		t.Fatalf("returned mapping %v is not a homomorphism", h)
	}
	// But not injectively.
	if _, ok := findHomomorphism(path, loop, true); ok {
		t.Error("injective homomorphism from 3-value path to 1-value loop should not exist")
	}
}

func TestFindHomomorphismNone(t *testing.T) {
	// An edge cannot map into an empty instance.
	if _, ok := findHomomorphism(inst("E(a,b)"), NewInstance(), false); ok {
		t.Error("found homomorphism into empty instance")
	}
	// A triangle does not map into a single directed edge.
	tri := inst("E(a,b)", "E(b,c)", "E(c,a)")
	edge := inst("E(x,y)")
	if _, ok := findHomomorphism(tri, edge, false); ok {
		t.Error("triangle should not map homomorphically to a single edge")
	}
}

func TestFindHomomorphismEmptySource(t *testing.T) {
	h, ok := findHomomorphism(NewInstance(), inst("E(a,b)"), true)
	if !ok || len(h) != 0 {
		t.Error("empty instance should map anywhere via the empty mapping")
	}
}

func TestIsHomomorphismRequiresTotality(t *testing.T) {
	i := inst("E(a,b)")
	if IsHomomorphism(Hom{"a": "x"}, i, inst("E(x,b)")) {
		t.Error("partial mapping accepted as homomorphism")
	}
}

func TestInjectiveHomIsEmbedding(t *testing.T) {
	small := inst("E(a,b)")
	big := inst("E(x,y)", "E(y,z)")
	h, ok := findHomomorphism(small, big, true)
	if !ok {
		t.Fatal("no injective homomorphism from edge into path")
	}
	if !h.isInjective() {
		t.Fatalf("mapping %v claimed injective but is not", h)
	}
}

func TestHomIsInjective(t *testing.T) {
	if (Hom{"a": "x", "b": "x"}).isInjective() {
		t.Error("collapsing mapping reported injective")
	}
	if !(Hom{"a": "x", "b": "y"}).isInjective() {
		t.Error("injective mapping reported non-injective")
	}
}

func TestIdentityHom(t *testing.T) {
	i := inst("E(a,b)", "E(b,c)")
	h := identityHom(i.ADom())
	if !IsHomomorphism(h, i, i) {
		t.Error("identity is not a homomorphism from I to I")
	}
	if !h.isInjective() {
		t.Error("identity not injective")
	}
}

// Every instance maps homomorphically into any superset (via identity),
// and FindHomomorphism must find some witness.
func TestHomomorphismIntoSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		i := randomGraph(rng, 4, 4)
		j := i.Union(randomGraph(rng, 4, 2))
		h, ok := findHomomorphism(i, j, true)
		if !ok {
			t.Fatalf("no injective hom from %v into superset %v", i, j)
		}
		if !IsHomomorphism(h, i, j) {
			t.Fatalf("witness %v not a homomorphism", h)
		}
	}
}

// Homomorphisms compose.
func TestHomomorphismComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		i := randomGraph(rng, 3, 3)
		j := randomGraph(rng, 3, 4).Union(i)
		k := j.Union(randomGraph(rng, 3, 2))
		h1, ok1 := findHomomorphism(i, j, false)
		h2, ok2 := findHomomorphism(j, k, false)
		if !ok1 || !ok2 {
			continue
		}
		comp := make(Hom, len(h1))
		for v, w := range h1 {
			if x, ok := h2[w]; ok {
				comp[v] = x
			} else {
				comp[v] = w
			}
		}
		if !IsHomomorphism(comp, i, k) {
			t.Fatalf("composition of homomorphisms not a homomorphism: %v ; %v", h1, h2)
		}
	}
}

// A homomorphism maps one instance into another; a path maps onto a
// loop by collapsing all values.
func Example_findHomomorphism() {
	path := MustParseInstance(`E(a,b) E(b,c)`)
	loop := MustParseInstance(`E(x,x)`)
	h, ok := findHomomorphism(path, loop, false)
	fmt.Println(ok, h["a"], h["b"], h["c"])
	// Output:
	// true x x x
}
