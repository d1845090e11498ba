package monotone

import (
	"fmt"
	"math/rand"

	"repro/internal/fact"
)

// Witness records a concrete violation of a monotonicity condition:
// the fact Missing is in Q(I) but not in Q(I ∪ J), for a pair (I, J)
// allowed by the class under test.
type Witness struct {
	I, J    *fact.Instance
	Missing fact.Fact
}

// String renders the witness for error messages and reports.
func (w *Witness) String() string {
	return fmt.Sprintf("I=%v J=%v missing=%v", w.I, w.J, w.Missing)
}

// CheckPair tests the monotonicity condition Q(I) ⊆ Q(I ∪ J) for a
// single pair, returning a witness if it fails and nil if it holds.
func CheckPair(q Query, i, j *fact.Instance) (*Witness, error) {
	qi, err := q.Eval(i)
	if err != nil {
		return nil, fmt.Errorf("monotone: evaluating %s on I: %w", q.Name(), err)
	}
	qij, err := q.Eval(i.Union(j))
	if err != nil {
		return nil, fmt.Errorf("monotone: evaluating %s on I∪J: %w", q.Name(), err)
	}
	var w *Witness
	qi.Each(func(f fact.Fact) bool {
		if !qij.Has(f) {
			w = &Witness{I: i.Clone(), J: j.Clone(), Missing: f}
			return false
		}
		return true
	})
	return w, nil
}

// Sampler produces candidate pairs (I, J); FindViolation filters them
// through the class condition. Samplers must be deterministic given
// the rng.
type Sampler func(rng *rand.Rand) (i, j *fact.Instance)

// FindViolation samples up to trials pairs from the sampler, keeps
// those allowed by the class, and returns the first monotonicity
// violation found (or nil if none). A nil result is evidence — not
// proof — of membership in the class; use the paper's explicit
// counterexample pairs to establish non-membership exactly.
func FindViolation(q Query, c Class, s Sampler, seed int64, trials int) (*Witness, error) {
	rng := rand.New(rand.NewSource(seed))
	tested := 0
	for n := 0; n < trials; n++ {
		i, j := s(rng)
		if !c.Allows(j, i.Known()) {
			continue
		}
		tested++
		w, err := CheckPair(q, i, j)
		if err != nil {
			return nil, err
		}
		if w != nil {
			return w, nil
		}
	}
	if tested == 0 {
		return nil, fmt.Errorf("monotone: sampler produced no pair allowed by %v in %d trials", c, trials)
	}
	return nil, nil
}

// ExhaustiveCheck enumerates pairs (I, J) from the provided enumerator
// (e.g. all small graphs) and checks every pair allowed by the class.
// The enumerator calls yield for each candidate pair and stops when
// yield returns false.
func ExhaustiveCheck(q Query, c Class, enumerate func(yield func(i, j *fact.Instance) bool)) (*Witness, error) {
	var found *Witness
	var evalErr error
	enumerate(func(i, j *fact.Instance) bool {
		if !c.Allows(j, i.Known()) {
			return true
		}
		w, err := CheckPair(q, i, j)
		if err != nil {
			evalErr = err
			return false
		}
		if w != nil {
			found = w
			return false
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return found, nil
}

// ClassSampler wraps a sampler so that every produced pair is allowed
// by the class, by restricting J with restrictClassPair.
func ClassSampler(c Class, s Sampler) Sampler {
	return func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		i, j := s(rng)
		return i, restrictClassPair(c, i, j)
	}
}

// restrictClassPair adapts an arbitrary pair (I, J) to a class: it
// keeps the facts of J whose growth against I reaches the class's kind
// (facts of J may share values with each other) and truncates to the
// bound. Useful for samplers that want high acceptance rates.
func restrictClassPair(c Class, i, j *fact.Instance) *fact.Instance {
	known := i.Known()
	out := fact.NewInstance()
	for _, f := range j.Facts() {
		if c.Bound > 0 && out.Len() >= c.Bound {
			break
		}
		if factGrowth(f, known) >= c.Kind {
			out.Add(f)
		}
	}
	return out
}
