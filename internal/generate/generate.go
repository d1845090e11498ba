// Package generate produces database instances for tests, experiments
// and benchmarks: deterministic seeded random instances over arbitrary
// schemas, the structured graph families the paper's separating
// examples are built from (paths, cycles, cliques, stars), and
// exhaustive enumerations of all small graphs for exhaustive checks of
// universally quantified claims.
package generate

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/fact"
)

// Values returns n distinct values named prefix0..prefix(n-1).
func Values(prefix string, n int) []fact.Value {
	out := make([]fact.Value, n)
	for i := range out {
		out[i] = fact.Value(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// Random builds a random instance over the schema using the given
// value pool: for each relation, count facts with uniformly chosen
// arguments (duplicates fold by set semantics).
func Random(rng *rand.Rand, schema fact.Schema, pool []fact.Value, count int) *fact.Instance {
	out := fact.NewInstance()
	names := schema.Names()
	if len(names) == 0 || len(pool) == 0 {
		return out
	}
	for k := 0; k < count; k++ {
		rel := names[rng.Intn(len(names))]
		ar, _ := schema.Arity(rel)
		args := make([]fact.Value, ar)
		for i := range args {
			args[i] = pool[rng.Intn(len(pool))]
		}
		out.Add(fact.New(rel, args...))
	}
	return out
}

// RandomGraph builds a random directed graph over n values with m
// random edges (an Erdős–Rényi-style G(n, m) sample with possible
// self-loops), using the single binary relation E.
func RandomGraph(rng *rand.Rand, prefix string, n, m int) *fact.Instance {
	return Random(rng, fact.GraphSchema(), Values(prefix, n), m)
}

// Path returns the directed path v0 -> v1 -> ... -> v(n) with n edges.
func Path(prefix string, n int) *fact.Instance {
	out := fact.NewInstance()
	vs := Values(prefix, n+1)
	for i := 0; i < n; i++ {
		out.Add(fact.New("E", vs[i], vs[i+1]))
	}
	return out
}

// Cycle returns the directed cycle v0 -> v1 -> ... -> v(n-1) -> v0.
func Cycle(prefix string, n int) *fact.Instance {
	out := fact.NewInstance()
	vs := Values(prefix, n)
	for i := 0; i < n; i++ {
		out.Add(fact.New("E", vs[i], vs[(i+1)%n]))
	}
	return out
}

// Clique returns the complete loop-free digraph on n values: both
// directions of every pair, matching the paper's clique queries which
// ignore edge direction.
func Clique(prefix string, n int) *fact.Instance {
	out := fact.NewInstance()
	vs := Values(prefix, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out.Add(fact.New("E", vs[i], vs[j]))
			}
		}
	}
	return out
}

// Star returns a star with the given center value and k spokes
// center -> prefix0..prefix(k-1).
func Star(center fact.Value, prefix string, k int) *fact.Instance {
	out := fact.NewInstance()
	for _, v := range Values(prefix, k) {
		out.Add(fact.New("E", center, v))
	}
	return out
}

// Triangle returns the directed triangle a -> b -> c -> a over the
// given three values.
func Triangle(a, b, c fact.Value) *fact.Instance {
	return fact.NewInstance(
		fact.New("E", a, b),
		fact.New("E", b, c),
		fact.New("E", c, a),
	)
}

// DisjointUnion unions the instances after checking they are pairwise
// domain-disjoint; it panics otherwise (programming error in a test).
func DisjointUnion(parts ...*fact.Instance) *fact.Instance {
	out := fact.NewInstance()
	for _, p := range parts {
		if !p.ADom().Disjoint(out.ADom()) {
			panic(fmt.Sprintf("generate: DisjointUnion parts share values: %v vs %v", p, out))
		}
		out.AddAll(p)
	}
	return out
}

// bipartite returns the complete directed bipartite graph from n left
// values to m right values.
func bipartite(leftPrefix string, n int, rightPrefix string, m int) *fact.Instance {
	out := fact.NewInstance()
	for _, l := range Values(leftPrefix, n) {
		for _, r := range Values(rightPrefix, m) {
			out.Add(fact.New("E", l, r))
		}
	}
	return out
}

// Tournament returns a random tournament on n values: exactly one
// directed edge between every pair, orientation chosen by the rng.
func Tournament(rng *rand.Rand, prefix string, n int) *fact.Instance {
	out := fact.NewInstance()
	vs := Values(prefix, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(2) == 0 {
				out.Add(fact.New("E", vs[i], vs[j]))
			} else {
				out.Add(fact.New("E", vs[j], vs[i]))
			}
		}
	}
	return out
}

// Grid returns the directed w×h grid: edges rightward and downward.
func Grid(prefix string, w, h int) *fact.Instance {
	out := fact.NewInstance()
	at := func(x, y int) fact.Value {
		return fact.Value(fmt.Sprintf("%s%d_%d", prefix, x, y))
	}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if x+1 < w {
				out.Add(fact.New("E", at(x, y), at(x+1, y)))
			}
			if y+1 < h {
				out.Add(fact.New("E", at(x, y), at(x, y+1)))
			}
		}
	}
	return out
}

// AllGraphs enumerates every directed graph (edge set over E) on the
// given values, invoking visit for each; 2^(n²) instances, so keep n
// tiny (n=2 → 16, n=3 → 512). If visit returns false the enumeration
// stops early.
func AllGraphs(values []fact.Value, visit func(*fact.Instance) bool) {
	n := len(values)
	type edge struct{ a, b fact.Value }
	var edges []edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			edges = append(edges, edge{values[i], values[j]})
		}
	}
	total := 1 << len(edges)
	for mask := 0; mask < total; mask++ {
		inst := fact.NewInstance()
		for b, e := range edges {
			if mask&(1<<b) != 0 {
				inst.Add(fact.New("E", e.a, e.b))
			}
		}
		if !visit(inst) {
			return
		}
	}
}

// RandomProgram returns the source text of a random safe Datalog¬
// program with the given number of rules, for cross-mode differential
// testing of the fixpoint engines. The program is safe by
// construction — every head, negated and inequality variable occurs in
// the positive body — and draws from a fixed schema: edb relations
// E/2 and A/1 (so instances from RandomGraph plus unary A facts are
// valid inputs) and idb relations P0/1, P1/2, P2/2, P3/1. Recursion
// through positive atoms and negation are both generated, so the
// result is not always stratifiable; callers that need stratified
// programs must filter.
func RandomProgram(rng *rand.Rand, numRules int) string {
	type relSig struct {
		name  string
		arity int
	}
	edb := []relSig{{"E", 2}, {"A", 1}}
	idb := []relSig{{"P0", 1}, {"P1", 2}, {"P2", 2}, {"P3", 1}}
	body := append(append([]relSig{}, edb...), idb...)
	vars := []string{"x", "y", "z", "w"}

	var b strings.Builder
	for r := 0; r < numRules; r++ {
		head := idb[rng.Intn(len(idb))]

		// Positive body: 1-3 atoms over random relations and variables.
		nPos := 1 + rng.Intn(3)
		var posVars []string
		seen := map[string]bool{}
		atoms := make([]string, 0, nPos)
		for i := 0; i < nPos; i++ {
			rel := body[rng.Intn(len(body))]
			args := make([]string, rel.arity)
			for j := range args {
				v := vars[rng.Intn(len(vars))]
				args[j] = v
				if !seen[v] {
					seen[v] = true
					posVars = append(posVars, v)
				}
			}
			atoms = append(atoms, rel.name+"("+strings.Join(args, ",")+")")
		}

		// Head arguments come from the positive variables (safety).
		headArgs := make([]string, head.arity)
		for j := range headArgs {
			headArgs[j] = posVars[rng.Intn(len(posVars))]
		}

		// Optional negated atom over positive variables.
		if rng.Intn(3) == 0 {
			rel := body[rng.Intn(len(body))]
			args := make([]string, rel.arity)
			for j := range args {
				args[j] = posVars[rng.Intn(len(posVars))]
			}
			atoms = append(atoms, "!"+rel.name+"("+strings.Join(args, ",")+")")
		}

		// Optional inequality between two positive variables.
		if len(posVars) >= 2 && rng.Intn(3) == 0 {
			a := posVars[rng.Intn(len(posVars))]
			c := posVars[rng.Intn(len(posVars))]
			if a != c {
				atoms = append(atoms, a+" != "+c)
			}
		}

		fmt.Fprintf(&b, "%s(%s) :- %s.\n", head.name, strings.Join(headArgs, ","), strings.Join(atoms, ", "))
	}
	return b.String()
}

// subsets enumerates every subinstance of I, invoking visit for each;
// 2^|I| instances. If visit returns false the enumeration stops early.
func subsets(i *fact.Instance, visit func(*fact.Instance) bool) {
	facts := i.Facts()
	total := 1 << len(facts)
	for mask := 0; mask < total; mask++ {
		inst := fact.NewInstance()
		for b, f := range facts {
			if mask&(1<<b) != 0 {
				inst.Add(f)
			}
		}
		if !visit(inst) {
			return
		}
	}
}
