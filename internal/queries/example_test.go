package queries_test

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/queries"
)

// Solve a game under the well-founded semantics: b escapes the a↔b
// cycle to the dead end c, so b wins and a, c lose.
func ExampleWinMoveClassified() {
	game := fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c)`)
	won, lost, drawn, err := queries.WinMoveClassified(game)
	if err != nil {
		panic(err)
	}
	fmt.Println("won:  ", won.Sorted())
	fmt.Println("lost: ", lost.Sorted())
	fmt.Println("drawn:", drawn.Sorted())
	// Output:
	// won:   [b]
	// lost:  [a c]
	// drawn: []
}

// QTC — the complement of transitive closure — is the paper's witness
// for Mdisjoint \ Mdistinct.
func ExampleComplementTC() {
	q := queries.ComplementTC()
	out, err := q.Eval(fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		panic(err)
	}
	fmt.Println(out)
	// Output:
	// {O(a,a), O(b,a), O(b,b)}
}

// The well-founded model of win-move on a 2-cycle leaves both
// positions undefined (drawn).
func ExampleWellFounded() {
	res, err := queries.WellFounded(queries.WinMoveProgram(), fact.MustParseInstance(`Move(a,b) Move(b,a)`))
	if err != nil {
		panic(err)
	}
	fmt.Println("true:     ", res.True.Rel("Win"))
	fmt.Println("undefined:", res.Undefined.Rel("Win"))
	// Output:
	// true:      []
	// undefined: [Win(a) Win(b)]
}

// The doubled program makes the alternating fixpoint stratified: the
// non-stratifiable win-move doubles into a connected, stratified
// program (the Section 7 remark).
func ExampleDoubledProgram() {
	d, err := queries.DoubledProgram(queries.WinMoveProgram())
	if err != nil {
		panic(err)
	}
	fmt.Println(d)
	fmt.Println("stratifiable:", d.IsStratifiable())
	fmt.Println("connected:   ", d.Memberships().Has(datalog.FragConDatalog))
	// Output:
	// Win__over(x) :- Move(x,y), !Win__under(y).
	// Win(x) :- Move(x,y), !Win__over(y).
	// stratifiable: true
	// connected:    true
}
