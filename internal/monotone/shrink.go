package monotone

import (
	"repro/internal/fact"
)

// ShrinkWitness greedily minimizes a monotonicity violation: it
// removes facts from J (and then from I) as long as the pair stays
// allowed by the class and still drops some output fact. The result is
// 1-minimal — removing any single remaining fact destroys the
// violation — which makes counterexamples readable and directly
// illustrates Theorem 3.1(2): for the class M every violation shrinks
// to a single-fact J, which is why M = Mⁱ for all i.
func ShrinkWitness(q Query, c Class, w *Witness) (*Witness, error) {
	cur := &Witness{I: w.I.Clone(), J: w.J.Clone(), Missing: w.Missing}

	violates := func(i, j *fact.Instance) (*Witness, error) {
		if !c.Allows(j, i.Known()) {
			return nil, nil
		}
		return CheckPair(q, i, j)
	}

	// Phase 1: shrink J.
	for changed := true; changed; {
		changed = false
		for _, f := range cur.J.Facts() {
			smaller := cur.J.Clone()
			smaller.Remove(f)
			if smaller.Empty() {
				continue // an empty J never violates (Q(I) ⊆ Q(I))
			}
			nw, err := violates(cur.I, smaller)
			if err != nil {
				return nil, err
			}
			if nw != nil {
				cur = &Witness{I: cur.I, J: smaller, Missing: nw.Missing}
				changed = true
				break
			}
		}
	}

	// Phase 2: shrink I. Removing I-facts can change adom(I) and thus
	// the class condition; violates re-checks Allows each time.
	for changed := true; changed; {
		changed = false
		for _, f := range cur.I.Facts() {
			smaller := cur.I.Clone()
			smaller.Remove(f)
			nw, err := violates(smaller, cur.J)
			if err != nil {
				return nil, err
			}
			if nw != nil {
				cur = &Witness{I: smaller, J: cur.J, Missing: nw.Missing}
				changed = true
				break
			}
		}
	}
	return cur, nil
}
