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

// Domain-distinctness and -disjointness (Section 3.1): the added
// instance J is distinct when every fact brings a new value, disjoint
// when it shares no value at all.
func ExampleDomainDistinct() {
	i := fact.MustParseInstance(`E(a,b)`)
	fmt.Println(fact.DomainDistinct(fact.MustParseInstance(`E(a,c)`), i))
	fmt.Println(fact.DomainDisjoint(fact.MustParseInstance(`E(a,c)`), i))
	fmt.Println(fact.DomainDisjoint(fact.MustParseInstance(`E(x,y)`), i))
	// Output:
	// true
	// false
	// true
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
