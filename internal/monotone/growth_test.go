package monotone

import (
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
)

// The kinds of Section 3.1 against I = {E(a,b)}: J is domain distinct
// when every fact brings a new value and domain disjoint when no fact
// shares one; an empty J is vacuously both.
func TestGrowthCases(t *testing.T) {
	i := fact.MustParseInstance(`E(a,b)`)
	cases := []struct {
		j    string
		want Kind
	}{
		{`E(a,c)`, Distinct},        // one new value
		{`E(c,d)`, Disjoint},        // only new values
		{`E(x,y)`, Disjoint},        // only new values
		{`E(a,b)`, Any},             // no new value
		{`E(b,a)`, Any},             // no new value, other order
		{`E(a,c) E(b,a)`, Any},      // E(b,a) brings nothing
		{`E(c,d) E(d,e)`, Disjoint}, // J's facts share values among themselves
		{`E(a,c) E(c,d)`, Distinct}, // one fact touches I
		{`R(c) E(a,d)`, Distinct},   // arities mix
		{``, Disjoint},
	}
	for _, c := range cases {
		if got := growth(fact.MustParseInstance(c.j), i.Known()); got != c.want {
			t.Errorf("growth(J={%s}, I=%v) = %v, want %v", c.j, i, Class{Kind: got}, Class{Kind: c.want})
		}
	}
}

// growth, Allows and restrictClassPair agree with the definitions of
// Section 3.1, computed here from active domains, on random pairs over
// E/2 whose J mixes I's values with fresh ones.
func TestGrowthProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	seen := map[Kind]int{}
	pool := append(generate.Values("v", 3), generate.Values("w", 3)...)
	for trial := 0; trial < 500; trial++ {
		i := generate.RandomGraph(rng, "v", 4, 1+rng.Intn(4))
		j := generate.Random(rng, fact.GraphSchema(), pool, rng.Intn(4))

		adI := i.ADom()
		distinct := true
		j.Each(func(f fact.Fact) bool {
			distinct = len(f.ADom().Minus(adI)) > 0
			return distinct
		})
		disjoint := j.ADom().Disjoint(adI)
		if disjoint && !distinct {
			t.Fatalf("J=%v disjoint from I=%v but not distinct", j, i)
		}
		want := Any
		if disjoint {
			want = Disjoint
		} else if distinct {
			want = Distinct
		}
		seen[want]++

		known := i.Known()
		if got := growth(j, known); got != want {
			t.Fatalf("growth(J=%v, I=%v) = %v, want %v", j, i, Class{Kind: got}, Class{Kind: want})
		}
		for _, kind := range []Kind{Any, Distinct, Disjoint} {
			for bound := 0; bound <= 2; bound++ {
				c := Class{kind, bound}
				inKind := kind == Any || kind == Distinct && distinct || kind == Disjoint && disjoint
				allowed := inKind && (bound == 0 || j.Len() <= bound)
				if got := c.Allows(j, known); got != allowed {
					t.Fatalf("%v.Allows(J=%v, I=%v) = %v, want %v", c, j, i, got, allowed)
				}
				r := restrictClassPair(c, i, j)
				if !r.SubsetOf(j) || !c.Allows(r, known) {
					t.Fatalf("%v: restrictClassPair(I=%v, J=%v) = %v, not an allowed part of J", c, i, j, r)
				}
			}
		}
	}
	for _, k := range []Kind{Any, Distinct, Disjoint} {
		if seen[k] == 0 {
			t.Errorf("no pair of kind %v drawn: %v", Class{Kind: k}, seen)
		}
	}
}
