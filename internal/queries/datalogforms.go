package queries

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/monotone"
)

// This file gives Datalog¬ formulations of the Datalog-expressible
// queries, generated programmatically for the parameterized families.
// Tests assert that each program agrees with its native evaluator,
// and the fragment classifier places each program where Figure 2
// predicts.

// TCProgram is the positive Datalog program for transitive closure.
func TCProgram() *datalog.Program {
	return datalog.MustParseProgram(`
		O(x,y) :- E(x,y).
		O(x,z) :- O(x,y), E(y,z).
	`)
}

// TCDatalog returns TC as a Datalog query.
func TCDatalog() monotone.Query {
	return datalog.MustQuery(TCProgram(), "O").SetName("TC(datalog)")
}

// ComplementTCProgram is the two-stratum Datalog¬ program for QTC.
func ComplementTCProgram() *datalog.Program {
	return datalog.MustParseProgram(`
		T(x,y) :- E(x,y).
		T(x,z) :- T(x,y), E(y,z).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x,y) :- Adom(x), Adom(y), !T(x,y).
	`)
}

// ComplementTCDatalog returns QTC as a Datalog¬ query.
func ComplementTCDatalog() monotone.Query {
	return datalog.MustQuery(ComplementTCProgram(), "O").SetName("QTC(datalog)")
}

// NoLoopProgram is the SP-Datalog program for the NoLoop query.
func NoLoopProgram() *datalog.Program {
	return datalog.MustParseProgram(`
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x) :- Adom(x), !E(x,x).
	`)
}

// NoLoopDatalog returns NoLoop as an SP-Datalog query.
func NoLoopDatalog() monotone.Query {
	return datalog.MustQuery(NoLoopProgram(), "O").SetName("NoLoop(datalog)")
}

// undirectedRules defines U as the symmetric, loop-free closure of E,
// plus Adom rules.
func undirectedRules() []datalog.Rule {
	p := datalog.MustParseProgram(`
		U(x,y) :- E(x,y), x != y.
		U(x,y) :- E(y,x), x != y.
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
	`)
	return p.Rules
}

// KCliqueProgram generates the Datalog¬ program for Q^k_clique:
//
//	U(x,y)  :- E(x,y), x != y.   (and symmetric)
//	Bad(w)  :- U(xa,xb) for all pairs a<b, xa != xb all pairs, Adom(w).
//	O(x,y)  :- E(x,y), !Bad(x).
//
// The Bad rule is deliberately disconnected (w is free): exactly the
// shape Example 5.1's P2 uses, and the reason these queries fall
// outside semicon-Datalog¬.
func KCliqueProgram(k int) *datalog.Program {
	if k < 2 {
		panic("queries: KCliqueProgram needs k >= 2")
	}
	rules := undirectedRules()

	bad := datalog.Rule{Head: datalog.AtomV("Bad", "w")}
	for a := 1; a <= k; a++ {
		for b := a + 1; b <= k; b++ {
			bad.Pos = append(bad.Pos, datalog.AtomV("U", v("x", a), v("x", b)))
			bad.Ineq = append(bad.Ineq, datalog.Inequality{A: datalog.V(v("x", a)), B: datalog.V(v("x", b))})
		}
	}
	bad.Pos = append(bad.Pos, datalog.AtomV(datalog.AdomRelation, "w"))
	rules = append(rules, bad)

	rules = append(rules, datalog.MustParseProgram(`O(x,y) :- E(x,y), !Bad(x).`).Rules...)
	return datalog.NewProgram(rules...)
}

// KCliqueDatalog returns Q^k_clique as a Datalog¬ query.
func KCliqueDatalog(k int) monotone.Query {
	return datalog.MustQuery(KCliqueProgram(k), "O").SetName(fmt.Sprintf("Q^%d_clique(datalog)", k))
}

// KStarProgram generates the Datalog¬ program for Q^k_star, with a
// disconnected Bad rule detecting a center with k pairwise-distinct
// undirected neighbors.
func KStarProgram(k int) *datalog.Program {
	if k < 1 {
		panic("queries: KStarProgram needs k >= 1")
	}
	rules := undirectedRules()

	bad := datalog.Rule{Head: datalog.AtomV("Bad", "w")}
	for a := 1; a <= k; a++ {
		bad.Pos = append(bad.Pos, datalog.AtomV("U", "c", v("s", a)))
	}
	for a := 1; a <= k; a++ {
		for b := a + 1; b <= k; b++ {
			bad.Ineq = append(bad.Ineq, datalog.Inequality{A: datalog.V(v("s", a)), B: datalog.V(v("s", b))})
		}
	}
	bad.Pos = append(bad.Pos, datalog.AtomV(datalog.AdomRelation, "w"))
	rules = append(rules, bad)

	rules = append(rules, datalog.MustParseProgram(`O(x,y) :- E(x,y), !Bad(x).`).Rules...)
	return datalog.NewProgram(rules...)
}

// kStarDatalog returns Q^k_star as a Datalog¬ query.
func kStarDatalog(k int) monotone.Query {
	return datalog.MustQuery(KStarProgram(k), "O").SetName(fmt.Sprintf("Q^%d_star(datalog)", k))
}

// DuplicateProgram generates the Datalog¬ program for Q^j_duplicate
// over the schema R1..Rj.
func DuplicateProgram(j int) *datalog.Program {
	if j < 1 {
		panic("queries: DuplicateProgram needs j >= 1")
	}
	var rules []datalog.Rule

	// D(x,y) :- R1(x,y), ..., Rj(x,y).
	d := datalog.Rule{Head: datalog.AtomV("D", "x", "y")}
	for n := 1; n <= j; n++ {
		d.Pos = append(d.Pos, datalog.AtomV(fmt.Sprintf("R%d", n), "x", "y"))
	}
	rules = append(rules, d)

	// Adom over every relation and position.
	for n := 1; n <= j; n++ {
		rel := fmt.Sprintf("R%d", n)
		rules = append(rules,
			datalog.Rule{Head: datalog.AtomV(datalog.AdomRelation, "x"), Pos: []datalog.Atom{datalog.AtomV(rel, "x", "y")}},
			datalog.Rule{Head: datalog.AtomV(datalog.AdomRelation, "y"), Pos: []datalog.Atom{datalog.AtomV(rel, "x", "y")}},
		)
	}

	// Bad(w) :- D(x,y), Adom(w). — disconnected on purpose.
	rules = append(rules, datalog.Rule{
		Head: datalog.AtomV("Bad", "w"),
		Pos:  []datalog.Atom{datalog.AtomV("D", "x", "y"), datalog.AtomV(datalog.AdomRelation, "w")},
	})

	// O(x,y) :- R1(x,y), !Bad(x).
	rules = append(rules, datalog.Rule{
		Head: datalog.AtomV("O", "x", "y"),
		Pos:  []datalog.Atom{datalog.AtomV("R1", "x", "y")},
		Neg:  []datalog.Atom{datalog.AtomV("Bad", "x")},
	})
	return datalog.NewProgram(rules...)
}

// duplicateDatalog returns Q^j_duplicate as a Datalog¬ query.
func duplicateDatalog(j int) monotone.Query {
	return datalog.MustQuery(DuplicateProgram(j), "O").SetName(fmt.Sprintf("Q^%d_duplicate(datalog)", j))
}

// Example51P1 is program P1 of Example 5.1: values not on a triangle.
// In con-Datalog¬ but not in Mdistinct.
func Example51P1() *datalog.Program {
	return datalog.MustParseProgram(`
		T(x) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.
		O(x) :- ¬T(x), Adom(x).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
	`)
}

// Example51P2 is program P2 of Example 5.1: values, unless two
// vertex-disjoint triangles exist. Not a semicon-Datalog¬ program and
// the expressed query is not in Mdisjoint.
func Example51P2() *datalog.Program {
	return datalog.MustParseProgram(`
		T(x,y,z) :- E(x,y), E(y,z), E(z,x), y != x, y != z, x != z.
		D(x1) :- T(x1,x2,x3), T(y1,y2,y3),
		         x1 != y1, x1 != y2, x1 != y3,
		         x2 != y1, x2 != y2, x2 != y3,
		         x3 != y1, x3 != y2, x3 != y3.
		O(x) :- ¬D(x), Adom(x).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
	`)
}

func v(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, n) }
