package monotone

import (
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
)

// tcQuery is the transitive-closure query, a monotone query.
func tcQuery() Query {
	p := datalog.MustParseProgram(`
		O(x,y) :- E(x,y).
		O(x,z) :- O(x,y), E(y,z).
	`)
	return datalog.MustQuery(p, "O").SetName("TC")
}

// complementTCQuery is QTC from Theorem 3.1: the complement of the
// transitive closure over the active domain.
func complementTCQuery() Query {
	p := datalog.MustParseProgram(`
		T(x,y) :- E(x,y).
		T(x,z) :- T(x,y), E(y,z).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x,y) :- Adom(x), Adom(y), !T(x,y).
	`)
	return datalog.MustQuery(p, "O").SetName("¬TC")
}

func graphSampler(n, mi, mj int) Sampler {
	return func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		i := generate.RandomGraph(rng, "v", n, mi)
		j := generate.RandomGraph(rng, "w", n, mj) // fresh namespace: disjoint from i
		return i, j
	}
}

// mixedSampler produces J that may reuse I's values.
func mixedSampler(n, mi, mj int) Sampler {
	return func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		i := generate.RandomGraph(rng, "v", n, mi)
		pool := append(generate.Values("v", n), generate.Values("w", n)...)
		j := generate.Random(rng, fact.GraphSchema(), pool, mj)
		return i, j
	}
}

func TestCheckPairMonotoneQuery(t *testing.T) {
	q := tcQuery()
	w, err := CheckPair(q, fact.MustParseInstance(`E(a,b)`), fact.MustParseInstance(`E(b,c)`))
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("TC should be monotone; witness %v", w)
	}
}

func TestCheckPairViolation(t *testing.T) {
	q := complementTCQuery()
	// I = single edge a->b: output contains O(b,a). Adding E(b,a)
	// removes it.
	i := fact.MustParseInstance(`E(a,b)`)
	j := fact.MustParseInstance(`E(b,a)`)
	w, err := CheckPair(q, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("¬TC should violate plain monotonicity on this pair")
	}
	if w.Missing.Rel() != "O" {
		t.Errorf("witness fact %v", w.Missing)
	}
}

func TestFindViolationTCClean(t *testing.T) {
	q := tcQuery()
	for _, c := range []Class{M, MDistinct, MDisjoint, Mi(2), MiDistinct(2), MiDisjoint(2)} {
		w, err := FindViolation(q, c, ClassSampler(c, mixedSampler(4, 5, 3)), 1, 300)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if w != nil {
			t.Errorf("TC violated %v: %v", c, w)
		}
	}
}

func TestFindViolationComplementTC(t *testing.T) {
	q := complementTCQuery()
	// Not monotone: the mixed sampler should find a violation.
	w, err := FindViolation(q, M, mixedSampler(4, 4, 4), 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Error("¬TC should violate M under mixed additions")
	}
	// But domain-disjoint additions never shorten distances:
	// QTC ∈ Mdisjoint (Theorem 3.1). The disjoint sampler only
	// produces disjoint pairs.
	w, err = FindViolation(q, MDisjoint, graphSampler(4, 4, 4), 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("¬TC should be domain-disjoint-monotone; witness %v", w)
	}
}

func TestFindViolationRejectsUselessSampler(t *testing.T) {
	q := tcQuery()
	// The disjoint-only sampler never produces an Mdistinct-but-not-
	// disjoint pair; but it does produce Mdistinct pairs (disjoint ⊆
	// distinct), so use a sampler that never satisfies the class:
	// J sharing all values with I, checked against Disjoint.
	sameValues := func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		i := generate.RandomGraph(rng, "v", 3, 3)
		// J = I guarantees adom overlap whenever I is nonempty.
		return i, i.Clone()
	}
	_, err := FindViolation(q, MDisjoint, sameValues, 4, 50)
	if err == nil {
		t.Error("expected error when no sampled pair matches the class")
	}
}

func TestExhaustiveCheckSmallGraphs(t *testing.T) {
	q := tcQuery()
	vals := generate.Values("v", 2)
	enumerate := func(yield func(i, j *fact.Instance) bool) {
		generate.AllGraphs(vals, func(i *fact.Instance) bool {
			cont := true
			generate.AllGraphs(append(generate.Values("w", 1), vals[0]), func(j *fact.Instance) bool {
				cont = yield(i, j)
				return cont
			})
			return cont
		})
	}
	w, err := ExhaustiveCheck(q, M, enumerate)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("TC monotonicity violated exhaustively: %v", w)
	}
}

func TestClassAllows(t *testing.T) {
	i := fact.MustParseInstance(`E(a,b)`)
	jDisjoint := fact.MustParseInstance(`E(x,y)`)
	jDistinct := fact.MustParseInstance(`E(a,x)`)
	jNeither := fact.MustParseInstance(`E(b,a)`)

	if !M.Allows(jNeither, i.Known()) {
		t.Error("M allows everything")
	}
	if !MDistinct.Allows(jDistinct, i.Known()) || MDistinct.Allows(jNeither, i.Known()) {
		t.Error("MDistinct.Allows wrong")
	}
	if !MDisjoint.Allows(jDisjoint, i.Known()) || MDisjoint.Allows(jDistinct, i.Known()) {
		t.Error("MDisjoint.Allows wrong")
	}
	big := fact.MustParseInstance(`E(x,y) E(y,z) E(z,w)`)
	if MiDisjoint(2).Allows(big, i.Known()) {
		t.Error("bound not enforced")
	}
	if !MiDisjoint(3).Allows(big, i.Known()) {
		t.Error("bound too strict")
	}
}

func TestClassImplies(t *testing.T) {
	// By definition: M ⊆ Mdistinct ⊆ Mdisjoint, and
	// Mi ⊆ Mi_distinct ⊆ Mi_disjoint; unbounded ⊆ bounded.
	cases := []struct {
		a, b Class
		want bool
	}{
		{M, MDistinct, true},
		{MDistinct, MDisjoint, true},
		{M, MDisjoint, true},
		{MDisjoint, MDistinct, false},
		{MDistinct, M, false},
		{MDistinct, MiDistinct(3), true},
		{MiDistinct(3), MiDistinct(2), true},
		{MiDistinct(2), MiDistinct(3), false},
		{MiDistinct(3), MDistinct, false},
		{MiDistinct(3), MiDisjoint(3), true},
		{MiDisjoint(3), MiDistinct(3), false},
	}
	for _, c := range cases {
		if got := c.a.Implies(c.b); got != c.want {
			t.Errorf("%v implies %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if M.String() != "M" || MDistinct.String() != "M_distinct" ||
		MiDisjoint(3).String() != "M^3_disjoint" {
		t.Errorf("String: %v %v %v", M, MDistinct, MiDisjoint(3))
	}
}

func TestRestrictClassPair(t *testing.T) {
	i := fact.MustParseInstance(`E(a,b)`)
	j := fact.MustParseInstance(`E(a,b) E(a,x) E(y,z)`)
	if got := restrictClassPair(MDistinct, i, j); got.Len() != 2 {
		t.Errorf("distinct restriction = %v", got)
	}
	if got := restrictClassPair(MDisjoint, i, j); got.Len() != 1 || !got.Has(fact.New("E", "y", "z")) {
		t.Errorf("disjoint restriction = %v", got)
	}
	if got := restrictClassPair(MiDisjoint(0), i, j); got.Len() != 1 {
		t.Errorf("zero bound treated as unbounded: %v", got)
	}
}

func TestExtensionPreservationTC(t *testing.T) {
	q := tcQuery()
	w, err := FindExtensionViolation(q, func(rng *rand.Rand) *fact.Instance {
		return generate.RandomGraph(rng, "v", 5, 6)
	}, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("TC should be preserved under extensions: %v", w)
	}
}

func TestExtensionPreservationViolated(t *testing.T) {
	// ¬TC is not preserved under extensions (E = Mdistinct and
	// QTC ∉ Mdistinct). Explicit pair: J = {E(a,b)} induced in
	// I = {E(a,b), E(b,c), E(c,a)}? adom(J)={a,b}; induced subinstance
	// of I on {a,b} is {E(a,b)} ✓. Q(J) has O(b,a) but in I b reaches a.
	q := complementTCQuery()
	i := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a)`)
	j := fact.MustParseInstance(`E(a,b)`)
	w, err := CheckExtensionPair(q, j, i)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Error("¬TC should violate extension preservation on this pair")
	}
}

func TestCheckExtensionPairValidatesInduced(t *testing.T) {
	q := tcQuery()
	i := fact.MustParseInstance(`E(a,b) E(b,a)`)
	j := fact.MustParseInstance(`E(a,b)`) // not induced: E(b,a) over {a,b} missing
	if _, err := CheckExtensionPair(q, j, i); err == nil {
		t.Error("non-induced pair should error")
	}
}

func TestHomPreservationTC(t *testing.T) {
	// TC (positive Datalog without ≠) is preserved under homomorphisms.
	q := tcQuery()
	gen := func(rng *rand.Rand) *fact.Instance { return generate.RandomGraph(rng, "v", 4, 5) }
	w, err := FindHomViolation(q, gen, false, 6, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("TC should be preserved under homomorphisms: %v", w)
	}
	w, err = FindHomViolation(q, gen, true, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("TC should be preserved under injective homomorphisms: %v", w)
	}
}

func TestHomPreservationNeqQuery(t *testing.T) {
	// O(x,y) :- E(x,y), x != y is in Datalog(≠) ⊆ M = Hinj but NOT in
	// H: collapsing x,y kills the output (Lemma 3.2 separation H ⊊ Hinj).
	p := datalog.MustParseProgram(`O(x,y) :- E(x,y), x != y.`)
	q := datalog.MustQuery(p, "O")
	i := fact.MustParseInstance(`E(a,b)`)
	h := fact.Hom{"a": "c", "b": "c"}
	j := i.Map(h)
	w, err := CheckHomPair(q, i, j, h)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Error("≠-query should violate homomorphism preservation under collapse")
	}
	// But injective homomorphisms are fine.
	w2, err := FindHomViolation(q, func(rng *rand.Rand) *fact.Instance {
		return generate.RandomGraph(rng, "v", 4, 5)
	}, true, 8, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w2 != nil {
		t.Errorf("≠-query should survive injective homomorphisms: %v", w2)
	}
}

func TestCheckHomPairValidates(t *testing.T) {
	q := tcQuery()
	i := fact.MustParseInstance(`E(a,b)`)
	if _, err := CheckHomPair(q, i, fact.NewInstance(), fact.Hom{"a": "x", "b": "y"}); err == nil {
		t.Error("non-homomorphism should error")
	}
}

func TestNewFuncAdapter(t *testing.T) {
	q := NewGraphFunc("id", fact.GraphSchema(), func(i *fact.Instance) (*fact.Instance, error) {
		return i.Clone(), nil
	})
	if q.Name() != "id" {
		t.Error("name")
	}
	out, err := q.Eval(fact.MustParseInstance(`E(a,b)`))
	if err != nil || out.Len() != 1 {
		t.Errorf("eval: %v %v", out, err)
	}
	// Identity is monotone in every class.
	w, err := FindViolation(q, M, mixedSampler(3, 3, 3), 9, 100)
	if err != nil || w != nil {
		t.Errorf("identity monotone check: %v %v", w, err)
	}
}
