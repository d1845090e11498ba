package fact

// This file implements the value probes behind Section 3.1 of the
// paper (which values of a fact an instance already knows; the kinds
// domain-distinct and domain-disjoint are decided from that count in
// internal/monotone) and the induced subinstances of Section 3.2.

// Fresh counts the values of f that the probe known does not hold.
// Against the probe of I (I.Known()), f is domain distinct from I when
// some value is fresh and domain disjoint from I when every value is.
func Fresh(f Fact, known func(ID) bool) int {
	n := 0
	for _, id := range f.args {
		if !known(id) {
			n++
		}
	}
	return n
}

// Known returns the probe of adom(I): membership in the set of the
// interned ids in the instance's columns, built once, so a test costs
// no symbol lookup. Later changes to the instance do not reach it.
func (i *Instance) Known() func(ID) bool {
	ids := make(map[ID]struct{})
	for _, c := range i.rels {
		for _, id := range c.args {
			ids[id] = struct{}{}
		}
	}
	return func(id ID) bool {
		_, ok := ids[id]
		return ok
	}
}

// InducedSubinstance returns the induced subinstance of I on the value
// set C: {f ∈ I | adom(f) ⊆ C}. Per Section 3.2, J is an induced
// subinstance of I exactly when J = InducedSubinstance(I, adom(J)).
func InducedSubinstance(i *Instance, c ValueSet) *Instance {
	out := NewInstance()
	i.Each(func(f Fact) bool {
		for n := 0; n < f.Arity(); n++ {
			if !c.Has(f.Arg(n)) {
				return true
			}
		}
		out.Add(f)
		return true
	})
	return out
}

// IsInducedSubinstance reports whether J is an induced subinstance of I:
// J = {f ∈ I | adom(f) ⊆ adom(J)}.
func IsInducedSubinstance(j, i *Instance) bool {
	return j.Equal(InducedSubinstance(i, j.ADom()))
}
