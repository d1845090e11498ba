package fact_test

import (
	"fmt"

	"repro/internal/fact"
)

// Instances are finite sets of facts with a deterministic order.
func ExampleParseInstance() {
	i, err := fact.ParseInstance(`
		E(a,b)
		E(b,c)   # comments are allowed
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println(i)
	fmt.Println("adom:", i.ADom().Sorted())
	// Output:
	// {E(a,b), E(b,c)}
	// adom: [a b c]
}

// Domain-distinctness and -disjointness (Section 3.1) are read off the
// count of fresh values: a fact of J is distinct from I when it brings
// a new value, disjoint when it shares none.
func ExampleFresh() {
	known := fact.MustParseInstance(`E(a,b)`).Known()
	for _, f := range []string{`E(a,c)`, `E(x,y)`} {
		n := fact.Fresh(fact.MustParseFact(f), known)
		fmt.Println(f, "distinct:", n > 0, "disjoint:", n == 2)
	}
	// Output:
	// E(a,c) distinct: true disjoint: false
	// E(x,y) distinct: true disjoint: true
}

// Components partition an instance into value-disjoint pieces
// (Section 5.1): con-Datalog¬ queries distribute over them.
func ExampleComponents() {
	i := fact.MustParseInstance(`E(a,b) E(b,c) E(x,y)`)
	for _, c := range fact.Components(i) {
		fmt.Println(c)
	}
	// Output:
	// {E(a,b), E(b,c)}
	// {E(x,y)}
}
