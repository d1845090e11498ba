package monotone_test

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/queries"
)

// Check a single monotonicity condition: adding a self-loop retracts a
// NoLoop answer, so NoLoop is not monotone.
func ExampleCheckPair() {
	q := queries.NoLoop()
	i := fact.MustParseInstance(`E(a,b)`)
	j := fact.MustParseInstance(`E(a,a)`)
	w, err := monotone.CheckPair(q, i, j)
	if err != nil {
		panic(err)
	}
	fmt.Println(w.Missing)
	// Output:
	// O(a)
}

// The class conditions of Definition 1: which additions J are in
// scope for each monotonicity class, relative to I = {E(a,b)}.
func ExampleClass_Allows() {
	i := fact.MustParseInstance(`E(a,b)`)
	reuse := fact.MustParseInstance(`E(b,a)`)  // only old values
	extend := fact.MustParseInstance(`E(a,c)`) // one new value
	fresh := fact.MustParseInstance(`E(x,y)`)  // only new values

	fmt.Println(monotone.M.Allows(reuse, i.Known()), monotone.M.Allows(extend, i.Known()), monotone.M.Allows(fresh, i.Known()))
	fmt.Println(monotone.MDistinct.Allows(reuse, i.Known()), monotone.MDistinct.Allows(extend, i.Known()), monotone.MDistinct.Allows(fresh, i.Known()))
	fmt.Println(monotone.MDisjoint.Allows(reuse, i.Known()), monotone.MDisjoint.Allows(extend, i.Known()), monotone.MDisjoint.Allows(fresh, i.Known()))
	// Output:
	// true true true
	// false true true
	// false false true
}

// Class implication mirrors Figure 1: monotone implies
// domain-distinct-monotone implies domain-disjoint-monotone.
func ExampleClass_Implies() {
	fmt.Println(monotone.M.Implies(monotone.MDistinct))
	fmt.Println(monotone.MDistinct.Implies(monotone.MDisjoint))
	fmt.Println(monotone.MDisjoint.Implies(monotone.M))
	// Output:
	// true
	// true
	// false
}
