package queries

import (
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
)

func TestHasKClique(t *testing.T) {
	k4 := generate.Clique("v", 4)
	for k := 1; k <= 4; k++ {
		if !hasKClique(k4, k) {
			t.Errorf("K4 should contain a %d-clique", k)
		}
	}
	if hasKClique(k4, 5) {
		t.Error("K4 should not contain a 5-clique")
	}
	// Direction is ignored: a one-directional triangle is a 3-clique.
	tri := generate.Triangle("a", "b", "c")
	if !hasKClique(tri, 3) {
		t.Error("directed triangle should count as an undirected 3-clique")
	}
	// Self-loops do not make cliques.
	loop := fact.MustParseInstance(`E(a,a)`)
	if hasKClique(loop, 2) {
		t.Error("self-loop is not a 2-clique")
	}
	if hasKClique(fact.NewInstance(), 1) {
		t.Error("empty graph has no 1-clique")
	}
}

func TestHasKStar(t *testing.T) {
	s := generate.Star("c", "s", 3)
	if !hasKStar(s, 3) || hasKStar(s, 4) {
		t.Error("star spoke counting wrong")
	}
	// Incoming edges count too (undirected).
	in := fact.MustParseInstance(`E(a,c) E(b,c) E(c,d)`)
	if !hasKStar(in, 3) {
		t.Error("mixed-direction star not detected")
	}
	// Self-loop is not a spoke.
	if hasKStar(fact.MustParseInstance(`E(a,a)`), 1) {
		t.Error("self-loop counted as spoke")
	}
}

func TestTriangles(t *testing.T) {
	tri := generate.Triangle("a", "b", "c")
	ts := triangles(tri)
	if len(ts) != 3 { // three rotations
		t.Errorf("triangle rotations = %d, want 3: %v", len(ts), ts)
	}
	if len(triangles(generate.Path("v", 3))) != 0 {
		t.Error("path has no triangles")
	}
	// Self-loops never form triangles.
	if len(triangles(fact.MustParseInstance(`E(a,a) E(a,b) E(b,a)`))) != 0 {
		t.Error("degenerate 2-cycle with loop misdetected as triangle")
	}
}

func TestHasTwoDisjointTriangles(t *testing.T) {
	one := generate.Triangle("a", "b", "c")
	if hasTwoDisjointTriangles(one) {
		t.Error("one triangle is not two")
	}
	two := generate.DisjointUnion(generate.Triangle("a", "b", "c"), generate.Triangle("x", "y", "z"))
	if !hasTwoDisjointTriangles(two) {
		t.Error("two disjoint triangles not detected")
	}
	// Sharing a vertex: not disjoint.
	shared := one.Union(generate.Triangle("a", "y", "z"))
	if hasTwoDisjointTriangles(shared) {
		t.Error("vertex-sharing triangles reported disjoint")
	}
}

func TestTCNative(t *testing.T) {
	out, err := TC().Eval(fact.MustParseInstance(`E(a,b) E(b,c)`))
	if err != nil {
		t.Fatal(err)
	}
	want := fact.MustParseInstance(`O(a,b) O(b,c) O(a,c)`)
	if !out.Equal(want) {
		t.Errorf("TC = %v, want %v", out, want)
	}
}

func TestComplementTCNative(t *testing.T) {
	out, err := ComplementTC().Eval(fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	want := fact.MustParseInstance(`O(a,a) O(b,a) O(b,b)`)
	if !out.Equal(want) {
		t.Errorf("QTC = %v, want %v", out, want)
	}
}

func TestKCliqueQuery(t *testing.T) {
	q := KClique(3)
	// No triangle: output = edges.
	out, err := q.Eval(generate.Path("v", 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("no-clique output = %v", out)
	}
	// Triangle present: empty.
	out, err = q.Eval(generate.Triangle("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Empty() {
		t.Errorf("clique-present output = %v", out)
	}
}

func TestKStarQuery(t *testing.T) {
	q := KStar(2)
	out, err := q.Eval(fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("single-edge output = %v", out)
	}
	out, err = q.Eval(generate.Star("c", "s", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Empty() {
		t.Errorf("star-present output = %v", out)
	}
}

func TestDuplicateQuery(t *testing.T) {
	q := Duplicate(2)
	// Intersection empty: output R1.
	out, err := q.Eval(fact.MustParseInstance(`R1(a,b) R2(b,c)`))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(fact.MustParseInstance(`O(a,b)`)) {
		t.Errorf("duplicate output = %v", out)
	}
	// Shared pair: empty.
	out, err = q.Eval(fact.MustParseInstance(`R1(a,b) R2(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Empty() {
		t.Errorf("duplicated pair output = %v", out)
	}
}

func TestTrianglesUnlessTwoDisjoint(t *testing.T) {
	q := TrianglesUnlessTwoDisjoint()
	out, err := q.Eval(generate.Triangle("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("single-triangle output = %v", out)
	}
	two := generate.DisjointUnion(generate.Triangle("a", "b", "c"), generate.Triangle("x", "y", "z"))
	out, err = q.Eval(two)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Empty() {
		t.Errorf("two-disjoint-triangle output = %v", out)
	}
}

// TC on structured families has a known closure size: on the w×h grid
// every cell reaches exactly the cells weakly below-right of it.
func TestTCOnGrid(t *testing.T) {
	g := generate.Grid("g", 3, 3)
	out, err := TC().Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	// Reachable pairs: for each (x,y), all (x',y') with x'>=x, y'>=y
	// except itself: sum over cells of (w-x)(h-y) - 1.
	want := 0
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			want += (3-x)*(3-y) - 1
		}
	}
	if out.Len() != want {
		t.Errorf("grid TC size = %d, want %d", out.Len(), want)
	}
}

// Every tournament on n >= 2 vertices has a vertex reaching all others
// (a king by transitivity): TC must contain a full out-row.
func TestTCOnTournament(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		tour := generate.Tournament(rng, "v", 6)
		out, err := TC().Eval(tour)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for v := range tour.ADom() {
			all := true
			for u := range tour.ADom() {
				if u != v && !out.Has(fact.New("O", v, u)) {
					all = false
					break
				}
			}
			if all {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("tournament %v has no vertex reaching all others", tour)
		}
	}
}

// Native and Datalog forms must agree on random inputs.
func TestNativeVsDatalog(t *testing.T) {
	pairs := []struct {
		name           string
		native, dlForm monotone.Query
	}{
		{"TC", TC(), TCDatalog()},
		{"QTC", ComplementTC(), ComplementTCDatalog()},
		{"NoLoop", NoLoop(), NoLoopDatalog()},
		{"Q3clique", KClique(3), KCliqueDatalog(3)},
		{"Q4clique", KClique(4), KCliqueDatalog(4)},
		{"Q2star", KStar(2), kStarDatalog(2)},
		{"Q3star", KStar(3), kStarDatalog(3)},
	}
	rng := rand.New(rand.NewSource(41))
	for _, pair := range pairs {
		for trial := 0; trial < 25; trial++ {
			in := generate.RandomGraph(rng, "v", 5, 7)
			a, err := pair.native.Eval(in)
			if err != nil {
				t.Fatalf("%s native: %v", pair.name, err)
			}
			b, err := pair.dlForm.Eval(in)
			if err != nil {
				t.Fatalf("%s datalog: %v", pair.name, err)
			}
			if !a.Equal(b) {
				t.Fatalf("%s disagrees on %v:\nnative  = %v\ndatalog = %v", pair.name, in, a, b)
			}
		}
	}

	// The ID kernels on one larger seeded graph: 12 values, 30 edges,
	// with self-loops and cycles.
	rng = rand.New(rand.NewSource(29))
	vals := generate.Values("v", 12)
	in := fact.NewInstance()
	for in.Len() < 30 {
		in.Add(fact.New("E", vals[rng.Intn(12)], vals[rng.Intn(12)]))
	}
	tc, err := TC().Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	loops, cyclic := 0, 0
	for _, v := range vals {
		if in.Has(fact.New("E", v, v)) {
			loops++
		}
		if tc.Has(fact.New("O", v, v)) {
			cyclic++
		}
	}
	if loops == 0 || cyclic <= loops {
		t.Fatalf("seeded graph has %d self-loops and %d values on cycles: pick another seed", loops, cyclic)
	}
	for _, pair := range []struct {
		name           string
		native, dlForm monotone.Query
	}{
		{"TC", TC(), TCDatalog()},
		{"QTC", ComplementTC(), ComplementTCDatalog()},
		{"NoLoop", NoLoop(), NoLoopDatalog()},
	} {
		a, err := pair.native.Eval(in)
		if err != nil {
			t.Fatalf("%s native: %v", pair.name, err)
		}
		b, err := pair.dlForm.Eval(in)
		if err != nil {
			t.Fatalf("%s datalog: %v", pair.name, err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s disagrees on %v:\nnative  = %v\ndatalog = %v", pair.name, in, a, b)
		}
	}
}

// intersect returns the facts a and b share.
func intersect(a, b *fact.Instance) *fact.Instance { return a.Minus(a.Minus(b)) }

// TestTCGrowMatchesEval: on seeded random graphs with self-loops and
// cycles, each fact dealt to K, to ΔK or to both, and E facts of other
// arities among them, a holder of TC(K) grown by ΔK holds
// TC(K ∪ ΔK), and Grow adds nothing TC(K) already holds.
func TestTCGrowMatchesEval(t *testing.T) {
	g, ok := TC().(monotone.Grower)
	if !ok {
		t.Fatal("TC is not a monotone.Grower")
	}
	rng := rand.New(rand.NewSource(53))
	loops, overlaps, cyclic := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(9)
		vals := generate.Values("v", n)
		v := func() fact.Value { return vals[rng.Intn(n)] }
		k, dk := fact.NewInstance(), fact.NewInstance()
		for e := rng.Intn(3 * n); e > 0; e-- {
			f := fact.New("E", v(), v())
			switch rng.Intn(8) {
			case 0:
				f = fact.New("E", v())
			case 1:
				f = fact.New("E", v(), v(), v())
			}
			if f.Arity() == 2 && f.Arg(0) == f.Arg(1) {
				loops++
			}
			switch rng.Intn(5) {
			case 0, 1:
				k.Add(f)
			case 2, 3:
				dk.Add(f)
			default:
				k.Add(f)
				dk.Add(f)
				overlaps++
			}
		}
		old, err := g.Eval(k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.Eval(k.Union(dk))
		if err != nil {
			t.Fatal(err)
		}
		if want.Has(fact.New("O", vals[0], vals[0])) {
			cyclic++
		}
		// The holder's state: TC(K) beside facts of other relations
		// and arities, which Grow must not read as closure pairs.
		held := old.Union(fact.MustParseInstance(`Xg_E(v0,v1) O(v0) O(v1,v0,v1)`))
		into := fact.NewInstance()
		g.Grow(held, dk, into)
		if inter := intersect(into, old); !inter.Empty() {
			t.Fatalf("K %v, ΔK %v: Grow added %v, which TC(K) holds", k, dk, inter)
		}
		if got := old.Union(into); !got.Equal(want) {
			t.Fatalf("K %v, ΔK %v: TC(K) ∪ Grow = %v, TC(K ∪ ΔK) = %v", k, dk, got, want)
		}
	}
	if loops == 0 || overlaps == 0 || cyclic == 0 {
		t.Fatalf("the seed draws %d self-loops, %d overlapping facts, %d cyclic graphs: pick another", loops, overlaps, cyclic)
	}
}

// The graph queries read E/2 only: E facts of other arities are
// ignored, as the rules of the Datalog forms ignore them, and never
// make an evaluator panic.
func TestGraphQueriesIgnoreOtherArities(t *testing.T) {
	mixed := fact.MustParseInstance(`E(a) E(a,b,c) E(a,b) E(b,c)`)
	edges := fact.MustParseInstance(`E(a,b) E(b,c)`)
	for _, name := range []string{"tc", "noloop", "qtc", "triangles", "clique:2", "clique:3", "star:1", "star:2"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Query.InputSchema().Equal(fact.GraphSchema()) {
			t.Fatalf("%s is not a graph query: %v", name, e.Query.InputSchema())
		}
		got, err := e.Query.Eval(mixed)
		if err != nil {
			t.Fatalf("%s on %v: %v", name, mixed, err)
		}
		want, err := e.Query.Eval(edges)
		if err != nil {
			t.Fatalf("%s on %v: %v", name, edges, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: %v on %v, %v on %v", name, got, mixed, want, edges)
		}
	}
}

func TestDuplicateNativeVsDatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, j := range []int{2, 3} {
		native, dlForm := Duplicate(j), duplicateDatalog(j)
		schema := DuplicateSchema(j)
		for trial := 0; trial < 25; trial++ {
			in := generate.Random(rng, schema, generate.Values("v", 4), 6)
			a, err := native.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			b, err := dlForm.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("Q^%d_duplicate disagrees on %v:\nnative  = %v\ndatalog = %v", j, in, a, b)
			}
		}
	}
}

// Example 5.1 P1 computes "values not on a (directed) triangle".
func TestExample51P1Semantics(t *testing.T) {
	q, err := newDatalogQuery(Example51P1())
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Eval(fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(fact.MustParseInstance(`O(a) O(b)`)) {
		t.Errorf("P1 on single edge = %v", out)
	}
	out, err = q.Eval(generate.Triangle("a", "b", "c").Union(fact.MustParseInstance(`E(c,d)`)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(fact.MustParseInstance(`O(d)`)) {
		t.Errorf("P1 on triangle+tail = %v", out)
	}
}

// Example 5.1's observed non-monotone behavior: P1({E(a,b)}) ≠ ∅ but
// P1({E(a,b), E(b,c), E(c,a)}) = ∅ for the values a, b — a
// domain-distinct addition shrinking the output (so P1 ∉ Mdistinct).
func TestExample51P1NotMdistinct(t *testing.T) {
	q, err := newDatalogQuery(Example51P1())
	if err != nil {
		t.Fatal(err)
	}
	i := fact.MustParseInstance(`E(a,b)`)
	j := fact.MustParseInstance(`E(b,c) E(c,a)`)
	if !monotone.MDistinct.Allows(j, i.Known()) {
		t.Fatal("J should be domain distinct from I")
	}
	w, err := monotone.CheckPair(q, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Error("P1 should violate domain-distinct monotonicity on Example 5.1's pair")
	}
}
