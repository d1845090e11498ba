package fact

import "slices"

// This file implements components of an instance (Section 5.1,
// Definition 5 context): J is a component of I when J ⊆ I, J ≠ ∅,
// adom(J) ∩ adom(I\J) = ∅, and J is minimal with this property.
// Components partition I by connectivity of the "shares a value" graph
// on facts; ComponentIndex maintains that partition as facts arrive,
// and it is the one union-find the repository keeps: Components, the
// cluster's component placement and rule connectivity (graph+(ϕ)) all
// read it.

// ComponentIndex maintains co(I) of a growing instance I: a union-find
// over the interned values of the facts added, each component holding
// its facts once, under its root. A component's root is its minimum
// value in Value order, so a root is a pure function of the
// component's values: adding facts in any order ends at the same
// roots, and a component that absorbs another keeps its root.
//
// Removing a fact never splits its component: after removals the index
// holds a coarsening of co(I) — every component of I lies inside one of
// the index's. That is sound for placement (colocating more than co(I)
// asks keeps every derivation local), if less sharp.
//
// An index is not safe for concurrent use: even Root shortens paths.
type ComponentIndex struct {
	parent map[ID]ID        // value → parent value; a root is its own parent
	facts  map[ID]*Instance // root → its component's facts; absent when none
}

// NewComponentIndex returns an empty index.
func NewComponentIndex() *ComponentIndex {
	return &ComponentIndex{parent: make(map[ID]ID), facts: make(map[ID]*Instance)}
}

// Root returns the root of v's component. A value the index has not
// seen is a component of its own, and looking it up records nothing.
func (x *ComponentIndex) Root(v ID) ID {
	for {
		p, ok := x.parent[v]
		if !ok || p == v {
			return v
		}
		gp := x.parent[p]
		x.parent[v] = gp // path halving
		v = gp
	}
}

// Add inserts f, first merging the components of its values into one:
// the accumulated component with each argument's in turn, left to
// right. merged, when non-nil, is called before each merge that moves
// facts, with the surviving root, the absorbed root and the absorbed
// component's facts, still in place (read-only). Add returns f's root
// and whether f was new; false means the index already held f, and
// nothing changed.
func (x *ComponentIndex) Add(f Fact, merged func(root, absorbed ID, facts *Instance)) (ID, bool) {
	root := x.Root(f.args[0])
	comp := x.facts[root]
	if comp != nil && comp.Has(f) {
		return root, false
	}
	x.parent[root] = root
	for _, v := range f.args[1:] {
		if r := x.Root(v); r != root {
			root = x.union(root, r, merged)
		}
	}
	if comp = x.facts[root]; comp == nil {
		comp = &Instance{}
		x.facts[root] = comp
	}
	comp.Add(f)
	return root, true
}

// union merges the components rooted at a and b under the smaller
// root and returns it. The facts move into whichever of the two sets
// is larger, so a run of merges copies each fact O(log n) times.
func (x *ComponentIndex) union(a, b ID, merged func(root, absorbed ID, facts *Instance)) ID {
	root, gone := a, b
	if Symbol(b) < Symbol(a) {
		root, gone = b, a
	}
	x.parent[gone], x.parent[root] = root, root
	moved := x.facts[gone]
	if moved == nil {
		return root
	}
	if merged != nil {
		merged(root, gone, moved)
	}
	if keep := x.facts[root]; keep != nil {
		if keep.Len() < moved.Len() {
			keep, moved = moved, keep
		}
		keep.AddAll(moved)
		x.facts[root] = keep
	} else {
		x.facts[root] = moved
	}
	delete(x.facts, gone)
	return root
}

// Remove deletes f from its component, returning f's root and whether
// the index held f. The component keeps its values: it is never split.
func (x *ComponentIndex) Remove(f Fact) (ID, bool) {
	root := x.Root(f.args[0])
	comp := x.facts[root]
	if comp == nil || !comp.Remove(f) {
		return root, false
	}
	if comp.Empty() {
		delete(x.facts, root)
	}
	return root, true
}

// Components returns co(I), the components of I, in a deterministic
// order (sorted by the smallest fact of each component). The components
// partition I, each is nonempty, and distinct components have disjoint
// active domains.
func Components(i *Instance) []*Instance {
	x := NewComponentIndex()
	i.EachIDs(func(rel ID, args []ID) bool {
		x.Add(Fact{rel: rel, args: args}, nil) // Add copies args
		return true
	})
	type comp struct {
		least Fact // a view of the component's own storage, read here only
		facts *Instance
	}
	cs := make([]comp, 0, len(x.facts))
	for _, c := range x.facts {
		var least Fact
		c.EachIDs(func(rel ID, args []ID) bool {
			if f := (Fact{rel: rel, args: args}); least.args == nil || f.Compare(least) < 0 {
				least = f
			}
			return true
		})
		cs = append(cs, comp{least, c})
	}
	slices.SortFunc(cs, func(a, b comp) int { return a.least.Compare(b.least) })
	out := make([]*Instance, len(cs))
	for n, c := range cs {
		out[n] = c.facts
	}
	return out
}

// isComponent reports whether J is a component of I per the definition
// in Section 5.1: J ⊆ I, J nonempty, adom(J) ∩ adom(I\J) = ∅, and no
// strict nonempty subset J' of J has adom(J') ∩ adom(I\J') = ∅.
func isComponent(j, i *Instance) bool {
	if j.Empty() || !j.SubsetOf(i) {
		return false
	}
	if !j.ADom().Disjoint(i.Minus(j).ADom()) {
		return false
	}
	// Minimality: J must itself be a single component.
	return len(Components(j)) == 1
}
