// Package queries implements the concrete queries the paper uses as
// separating examples (Theorem 3.1, Example 5.1) and as headline
// results (win-move): transitive closure and its complement QTC, the
// clique queries Q^k_clique, the star queries Q^k_star, the duplicate
// queries Q^j_duplicate, the triangle query separating Mdisjoint from
// C, and the win-move query under the well-founded semantics.
//
// Every query is available as a native Go evaluator (this file); the
// Datalog¬-expressible ones are also available as programs
// (datalogforms.go), with tests asserting the two agree.
package queries

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fact"
	"repro/internal/monotone"
)

// eachEdge calls fn with the argument pair of every E/2 fact — the
// instance's own storage, valid only for the call. The graph queries
// ignore every other fact, E facts of other arities included, as the
// rules of their Datalog forms do.
func eachEdge(i *fact.Instance, fn func(xy []fact.ID)) {
	e, _ := fact.LookupValue("E") // NoID, the relation of no fact, before any E fact exists
	i.EachIDs(func(rel fact.ID, args []fact.ID) bool {
		if rel == e && len(args) == 2 {
			fn(args)
		}
		return true
	})
}

// undirectedNeighbors returns, for each value, its set of undirected
// neighbors under E (self-loops excluded). The paper's clique and star
// queries ignore edge direction.
func undirectedNeighbors(i *fact.Instance) map[fact.Value]fact.ValueSet {
	adj := make(map[fact.Value]fact.ValueSet)
	add := func(a, b fact.Value) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = make(fact.ValueSet)
		}
		adj[a].Add(b)
	}
	eachEdge(i, func(xy []fact.ID) {
		add(fact.Symbol(xy[0]), fact.Symbol(xy[1]))
		add(fact.Symbol(xy[1]), fact.Symbol(xy[0]))
	})
	return adj
}

// hasKClique reports whether the undirected version of E contains a
// clique on k distinct vertices.
func hasKClique(i *fact.Instance, k int) bool {
	if k <= 1 {
		// A single vertex is a 1-clique; any nonempty graph has one.
		return k == 1 && !i.Empty()
	}
	adj := undirectedNeighbors(i)
	verts := make([]fact.Value, 0, len(adj))
	for v, ns := range adj {
		if len(ns) >= k-1 {
			verts = append(verts, v)
		}
	}
	sort.Slice(verts, func(a, b int) bool { return verts[a] < verts[b] })

	var clique []fact.Value
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(clique) == k {
			return true
		}
		for n := start; n < len(verts); n++ {
			v := verts[n]
			ok := true
			for _, c := range clique {
				if !adj[c].Has(v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			clique = append(clique, v)
			if rec(n + 1) {
				return true
			}
			clique = clique[:len(clique)-1]
		}
		return false
	}
	return rec(0)
}

// hasKStar reports whether some vertex has at least k distinct
// undirected neighbors (a star with k spokes).
func hasKStar(i *fact.Instance, k int) bool {
	if k == 0 {
		return true
	}
	for _, ns := range undirectedNeighbors(i) {
		if len(ns) >= k {
			return true
		}
	}
	return false
}

// triangles returns all directed triangles x→y→z→x on distinct
// vertices, as O(x,y,z) facts (each triangle appears in its three
// rotations, matching the Datalog formulation).
func triangles(i *fact.Instance) []fact.Fact {
	edges := make(map[fact.Value]fact.ValueSet)
	eachEdge(i, func(xy []fact.ID) {
		x := fact.Symbol(xy[0])
		if edges[x] == nil {
			edges[x] = make(fact.ValueSet)
		}
		edges[x].Add(fact.Symbol(xy[1]))
	})
	var out []fact.Fact
	for x, xs := range edges {
		for y := range xs {
			if y == x {
				continue
			}
			for z := range edges[y] {
				if z == x || z == y {
					continue
				}
				if edges[z] != nil && edges[z].Has(x) {
					out = append(out, fact.New("O", x, y, z))
				}
			}
		}
	}
	fact.SortFacts(out)
	return out
}

// hasTwoDisjointTriangles reports whether the graph contains two
// vertex-disjoint directed triangles.
func hasTwoDisjointTriangles(i *fact.Instance) bool {
	tris := triangles(i)
	for a := 0; a < len(tris); a++ {
		va := tris[a].ADom()
		for b := a + 1; b < len(tris); b++ {
			if va.Disjoint(tris[b].ADom()) {
				return true
			}
		}
	}
	return false
}

// edgeOutput returns the input's E facts relabeled as O facts.
func edgeOutput(i *fact.Instance) *fact.Instance {
	out := fact.NewInstance()
	o := fact.InternString("O")
	eachEdge(i, func(xy []fact.ID) { out.AddIDs(o, xy) })
	return out
}

var graphOut2 = fact.MustSchema(map[string]int{"O": 2})

// TC returns the transitive-closure query over E, the canonical
// monotone query (∈ M ⊆ Mdistinct ⊆ Mdisjoint). It is a
// monotone.Grower: a holder of TC(K) extends it by new edges.
func TC() monotone.Query {
	return tc{monotone.NewGraphFunc("TC", graphOut2, func(i *fact.Instance) (*fact.Instance, error) {
		return closure(i), nil
	})}
}

type tc struct{ *monotone.Func }

// Grow adds to into TC(K ∪ ΔK) \ TC(K), reading TC(K) from the O facts
// of held. It takes the new edges one at a time: an edge (a,b) not yet
// in the closure joins every p with p = a or O(p,a) to every s with
// s = b or O(b,s), the closure so far being held ∪ into.
func (tc) Grow(held, added, into *fact.Instance) {
	o := fact.InternString("O")
	var fromBuf, toBuf [32]fact.ID
	from, to, pair := fromBuf[:0], toBuf[:0], make([]fact.ID, 2)
	eachEdge(added, func(ab []fact.ID) {
		a, b := ab[0], ab[1]
		if held.HasIDs(o, ab) || into.HasIDs(o, ab) {
			return // a path from a to b already closes every pair the edge could
		}
		from, to = append(from[:0], a), append(to[:0], b)
		for _, part := range [2]*fact.Instance{held, into} {
			rows := part.Rows(o, 2)
			for k := 0; k < len(rows); k += 2 {
				if rows[k+1] == a {
					from = append(from, rows[k])
				}
				if rows[k] == b {
					to = append(to, rows[k+1])
				}
			}
		}
		for _, pair[0] = range from {
			for _, pair[1] = range to {
				if !held.HasIDs(o, pair) {
					into.AddIDs(o, pair)
				}
			}
		}
	})
}

// closure returns TC(i) over IDs: an adjacency map built in one walk
// over the edges, then one depth-first search per source, the output
// itself serving as the visited set.
func closure(i *fact.Instance) *fact.Instance {
	adj := make(map[fact.ID][]fact.ID)
	eachEdge(i, func(xy []fact.ID) { adj[xy[0]] = append(adj[xy[0]], xy[1]) })
	out := fact.NewInstance()
	o := fact.InternString("O")
	var stack []fact.ID
	pair := make([]fact.ID, 2)
	for x, ys := range adj {
		pair[0] = x
		stack = append(stack[:0], ys...)
		for len(stack) > 0 {
			pair[1], stack = stack[len(stack)-1], stack[:len(stack)-1]
			if out.AddIDs(o, pair) {
				stack = append(stack, adj[pair[1]]...)
			}
		}
	}
	return out
}

// adom returns the values of the edges, sorted by ID.
func adom(i *fact.Instance) []fact.ID {
	var vals []fact.ID
	eachEdge(i, func(xy []fact.ID) { vals = append(vals, xy...) })
	slices.Sort(vals)
	return slices.Compact(vals)
}

// ComplementTC returns QTC from Theorem 3.1(1): all pairs (a, b) of
// active-domain values with no directed path from a to b. The paper's
// witness for Mdisjoint \ Mdistinct.
func ComplementTC() monotone.Query {
	return monotone.NewGraphFunc("QTC(¬TC)", graphOut2, func(i *fact.Instance) (*fact.Instance, error) {
		reach, out := closure(i), fact.NewInstance()
		o := fact.InternString("O")
		fact.EachTuple(adom(i), 2, func(pair []fact.ID) bool {
			if !reach.HasIDs(o, pair) {
				out.AddIDs(o, pair)
			}
			return true
		})
		return out, nil
	})
}

// NoLoop returns the SP-Datalog query "active-domain values without a
// self-loop": a simple witness for Mdistinct \ M.
func NoLoop() monotone.Query {
	out1 := fact.MustSchema(map[string]int{"O": 1})
	return monotone.NewGraphFunc("NoLoop", out1, func(i *fact.Instance) (*fact.Instance, error) {
		out := fact.NewInstance()
		e, _ := fact.LookupValue("E")
		o := fact.InternString("O")
		loop := make([]fact.ID, 2)
		eachEdge(i, func(xy []fact.ID) {
			for _, v := range xy {
				if loop[0], loop[1] = v, v; !i.HasIDs(e, loop) {
					out.AddIDs(o, loop[:1])
				}
			}
		})
		return out, nil
	})
}

// KClique returns Q^k_clique from Theorem 3.1(3): the edge relation
// when no k-clique exists (ignoring direction), the empty relation
// otherwise. Q^{i+2}_clique ∈ Mⁱdistinct \ M^{i+1}distinct.
func KClique(k int) monotone.Query {
	name := fmt.Sprintf("Q^%d_clique", k)
	return monotone.NewGraphFunc(name, graphOut2, func(i *fact.Instance) (*fact.Instance, error) {
		if hasKClique(i, k) {
			return fact.NewInstance(), nil
		}
		return edgeOutput(i), nil
	})
}

// KStar returns Q^k_star from Theorem 3.1(4,6): the edge relation when
// no star with k spokes exists, the empty relation otherwise.
// Q^{i+1}_star ∈ Mⁱdisjoint \ M^{i+1}disjoint, and
// Q^{j+1}_star ∈ Mʲdisjoint \ Mⁱdistinct.
func KStar(k int) monotone.Query {
	name := fmt.Sprintf("Q^%d_star", k)
	return monotone.NewGraphFunc(name, graphOut2, func(i *fact.Instance) (*fact.Instance, error) {
		if hasKStar(i, k) {
			return fact.NewInstance(), nil
		}
		return edgeOutput(i), nil
	})
}

// DuplicateSchema returns the input schema of Q^j_duplicate: binary
// relations R1..Rj.
func DuplicateSchema(j int) fact.Schema {
	s := make(fact.Schema)
	for n := 1; n <= j; n++ {
		s[fmt.Sprintf("R%d", n)] = 2
	}
	return s
}

// Duplicate returns Q^j_duplicate from Theorem 3.1(7): the relation R1
// when the global intersection of R1..Rj is empty, the empty set
// otherwise. Q^j_duplicate ∈ Mⁱdistinct \ Mʲdisjoint for i < j.
func Duplicate(j int) monotone.Query {
	name := fmt.Sprintf("Q^%d_duplicate", j)
	in := DuplicateSchema(j)
	return monotone.NewFunc(name, in, graphOut2, func(i *fact.Instance) (*fact.Instance, error) {
		// Intersection of all relations, as value pairs.
		inter := make(map[[2]fact.Value]int)
		for n := 1; n <= j; n++ {
			for _, f := range i.Rel(fmt.Sprintf("R%d", n)) {
				inter[[2]fact.Value{f.Arg(0), f.Arg(1)}]++
			}
		}
		for _, count := range inter {
			if count == j {
				return fact.NewInstance(), nil
			}
		}
		out := fact.NewInstance()
		for _, f := range i.Rel("R1") {
			out.Add(fact.New("O", f.Arg(0), f.Arg(1)))
		}
		return out, nil
	})
}

// TrianglesUnlessTwoDisjoint returns the query separating Mdisjoint
// from C in Theorem 3.1(1): all triangles, on condition that no two
// vertex-disjoint triangles exist (empty otherwise).
func TrianglesUnlessTwoDisjoint() monotone.Query {
	out3 := fact.MustSchema(map[string]int{"O": 3})
	return monotone.NewGraphFunc("Q_triangles", out3, func(i *fact.Instance) (*fact.Instance, error) {
		if hasTwoDisjointTriangles(i) {
			return fact.NewInstance(), nil
		}
		return fact.NewInstance(triangles(i)...), nil
	})
}
