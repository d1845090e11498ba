package fact

// This file implements homomorphisms between instances (Section 3.2):
// a homomorphism from I to J is a mapping h on adom(I) such that
// R(d̄) ∈ I implies R(h(d̄)) ∈ J. Homomorphism search is by
// backtracking over the active domain; injective search additionally
// requires h to be one-to-one. These are used by the preservation
// classes H, Hinj and E (Lemma 3.2).

// Hom is a value mapping, the carrier of a homomorphism.
type Hom map[Value]Value

// IsHomomorphism reports whether h (total on adom(I)) is a
// homomorphism from I to J.
func IsHomomorphism(h Hom, i, j *Instance) bool {
	for v := range i.ADom() {
		if _, ok := h[v]; !ok {
			return false
		}
	}
	ok := true
	i.Each(func(f Fact) bool {
		if !j.Has(f.Map(h)) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// isInjective reports whether h maps distinct values to distinct values.
func (h Hom) isInjective() bool {
	seen := make(ValueSet, len(h))
	for _, w := range h {
		if seen.Has(w) {
			return false
		}
		seen.Add(w)
	}
	return true
}

// findHomomorphism searches for a homomorphism from I to J, returning
// it and true on success. If injective is set, only injective
// homomorphisms are considered.
func findHomomorphism(i, j *Instance, injective bool) (Hom, bool) {
	src := i.ADom().Sorted()
	dst := j.ADom().Sorted()
	facts := i.Facts()
	h := make(Hom, len(src))
	used := make(ValueSet)

	// consistent reports whether the partial mapping h can still be
	// extended: every fact of I all of whose values are already mapped
	// must have its image in J.
	consistent := func() bool {
		for _, f := range facts {
			allMapped := true
			for n := 0; n < f.Arity(); n++ {
				if _, ok := h[f.Arg(n)]; !ok {
					allMapped = false
					break
				}
			}
			if allMapped && !j.Has(f.Map(h)) {
				return false
			}
		}
		return true
	}

	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(src) {
			return true
		}
		v := src[k]
		for _, w := range dst {
			if injective && used.Has(w) {
				continue
			}
			h[v] = w
			if injective {
				used.Add(w)
			}
			if consistent() && rec(k+1) {
				return true
			}
			delete(h, v)
			if injective {
				delete(used, w)
			}
		}
		return false
	}

	if len(src) == 0 {
		return h, true // the empty instance maps anywhere
	}
	if rec(0) {
		return h, true
	}
	return nil, false
}

// identityHom returns the identity mapping on the given value set.
func identityHom(s ValueSet) Hom {
	h := make(Hom, len(s))
	for v := range s {
		h[v] = v
	}
	return h
}
