package main

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
	"repro/internal/queries"
)

// matrixRow is one cell of the bounded-hierarchy matrix: whether the
// query belongs to the class, expected from Theorem 3.1 and observed by
// the harness.
type matrixRow struct {
	Query    string `json:"query"`
	Class    string `json:"class"`
	Expected bool   `json:"expected"`
	Observed bool   `json:"observed"`
}

// family is one parameterized query of Theorem 3.1 with its witness
// pair and expected membership per bounded class kind.
type family struct {
	name       string
	q          monotone.Query
	sample     monotone.Sampler
	distinct   [2]*fact.Instance // (I, J) against Mⁱdistinct
	disjoint   [2]*fact.Instance // (I, J) against Mⁱdisjoint
	inDistinct func(i int) bool
	inDisjoint func(i int) bool
}

// families lists the clique, star and duplicate families of the
// matrix. Expected values follow Theorem 3.1:
//
//   - Q^k_clique ∈ Mⁱdistinct iff i ≤ k-2; ∈ Mⁱdisjoint iff i < C(k,2);
//   - Q^k_star   ∈ Mⁱdistinct never;      ∈ Mⁱdisjoint iff i ≤ k-1;
//   - Q^j_dup    ∈ Mⁱdistinct iff i < j;  ∈ Mⁱdisjoint iff i < j.
func families() []family {
	var fs []family
	for _, k := range []int{3, 4} {
		// Against Mⁱdistinct, Theorem 3.1(3): a (k-1)-clique and a star
		// of k-1 domain-distinct facts from a fresh center. Against
		// Mⁱdisjoint: a fresh one-direction-per-pair k-clique.
		star := fact.NewInstance()
		for _, v := range generate.Values("v", k-1) {
			star.Add(fact.New("E", "center", v))
		}
		fresh := fact.NewInstance()
		xs := generate.Values("x", k)
		for a := range xs {
			for b := a + 1; b < k; b++ {
				fresh.Add(fact.New("E", xs[a], xs[b]))
			}
		}
		fs = append(fs, family{
			name: fmt.Sprintf("Q^%d_clique", k), q: queries.KClique(k), sample: graphPairs,
			distinct:   [2]*fact.Instance{generate.Clique("v", k-1), star},
			disjoint:   [2]*fact.Instance{fact.MustParseInstance(`E(a,b)`), fresh},
			inDistinct: func(i int) bool { return i <= k-2 },
			inDisjoint: func(i int) bool { return i < k*(k-1)/2 },
		})
	}
	for _, k := range []int{2, 3} {
		// Theorem 3.1(6): one distinct edge from the old center adds a
		// spoke; Theorem 3.1(4): a fresh star of k disjoint facts.
		fs = append(fs, family{
			name: fmt.Sprintf("Q^%d_star", k), q: queries.KStar(k), sample: graphPairs,
			distinct:   [2]*fact.Instance{generate.Star("c", "s", k-1), fact.MustParseInstance(`E(c,new)`)},
			disjoint:   [2]*fact.Instance{fact.MustParseInstance(`E(a,b)`), generate.Star("c", "t", k)},
			inDistinct: func(int) bool { return false },
			inDisjoint: func(i int) bool { return i <= k-1 },
		})
	}
	for _, j := range []int{2, 3} {
		// Theorem 3.1(7): a fresh tuple replicated across all j relations.
		dup := fact.NewInstance()
		for n := 1; n <= j; n++ {
			dup.Add(fact.New(fmt.Sprintf("R%d", n), "x", "y"))
		}
		pair := [2]*fact.Instance{fact.MustParseInstance(`R1(a,b)`), dup}
		schema := queries.DuplicateSchema(j)
		below := func(i int) bool { return i < j }
		fs = append(fs, family{
			name: fmt.Sprintf("Q^%d_duplicate", j), q: queries.Duplicate(j),
			sample: func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
				i := generate.Random(rng, schema, generate.Values("v", 4), 5)
				pool := append(generate.Values("v", 4), generate.Values("w", 3)...)
				return i, generate.Random(rng, schema, pool, 4)
			},
			distinct: pair, disjoint: pair, inDistinct: below, inDisjoint: below,
		})
	}
	return fs
}

// boundedMatrix fills the matrix for i = 1..maxBound, per family the
// Mⁱdistinct cell and then the Mⁱdisjoint cell of each i. A cell is
// observed outside its class when the class allows the family's witness
// pair and the pair separates, inside when sampling stays clean.
func boundedMatrix(maxBound, trials int) []matrixRow {
	var rows []matrixRow
	for _, f := range families() {
		for i := 1; i <= maxBound; i++ {
			for _, cell := range []struct {
				c        monotone.Class
				pair     [2]*fact.Instance
				expected bool
			}{
				{monotone.MiDistinct(i), f.distinct, f.inDistinct(i)},
				{monotone.MiDisjoint(i), f.disjoint, f.inDisjoint(i)},
			} {
				observed := true
				if cell.c.Allows(cell.pair[1], cell.pair[0].Known()) {
					_, separated := separation(f.q, cell.c, cell.pair[0], cell.pair[1])
					observed = !separated
				}
				if observed {
					_, observed = membership(f.q, cell.c, f.sample, trials)
				}
				rows = append(rows, matrixRow{Query: f.name, Class: cell.c.String(), Expected: cell.expected, Observed: observed})
			}
		}
	}
	return rows
}

// printMatrix renders the matrix one line per query and one column per
// class (the first cols rows name the columns), and returns the number
// of cells that disagree with Theorem 3.1.
func printMatrix(w io.Writer, rows []matrixRow, cols int) (failures int) {
	fmt.Fprintln(w, "Bounded-hierarchy matrix (✓ = member; paper-expected vs measured):")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s", "")
	for _, r := range rows[:cols] {
		fmt.Fprintf(w, " %-14s", r.Class)
	}
	fmt.Fprintln(w)
	for k, r := range rows {
		if k%cols == 0 {
			fmt.Fprintf(w, "%-16s", r.Query)
		}
		switch {
		case r.Expected != r.Observed:
			failures++
			fmt.Fprintf(w, " %-14s", "MISMATCH")
		case r.Observed:
			fmt.Fprintf(w, " %-14s", "✓")
		default:
			fmt.Fprintf(w, " %-14s", "·")
		}
		if k%cols == cols-1 {
			fmt.Fprintln(w)
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "\n%d matrix cells disagree with Theorem 3.1\n", failures)
	}
	return failures
}
