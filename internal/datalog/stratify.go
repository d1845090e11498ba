package datalog

import (
	"fmt"
	"sort"

	"repro/internal/fact"
)

// This file implements syntactic stratification and the stratified
// semantics of Section 2. A function ρ: idb(P) → {1..|idb(P)|} is a
// stratification when for every rule with head predicate T:
// ρ(R) ≤ ρ(T) for positive idb body atoms R, and ρ(R) < ρ(T) for
// negated idb body atoms R. The output P(I) is computed by running the
// semi-positive fixpoint of each stratum in order.

// Stratification assigns a stratum number to every idb predicate.
type Stratification map[string]int

// numStrata returns the largest stratum number (0 for an empty program).
func (s Stratification) numStrata() int {
	max := 0
	for _, n := range s {
		if n > max {
			max = n
		}
	}
	return max
}

// Stratify computes the canonical minimal stratification of the
// program, or an error if the program is not syntactically
// stratifiable (some cycle through negation exists).
//
// The algorithm is the classic relaxation: start every idb predicate at
// stratum 1 and repeatedly enforce ρ(head) ≥ ρ(R) for positive idb body
// atoms and ρ(head) ≥ ρ(R)+1 for negated idb body atoms; if any stratum
// number exceeds |idb(P)| the program is not stratifiable.
func (p *Program) Stratify() (Stratification, error) {
	idb := p.IDB()
	rho := make(Stratification, len(idb))
	for rel := range idb {
		rho[rel] = 1
	}
	limit := len(idb)
	for {
		changed := false
		for _, r := range p.Rules {
			h := r.Head.Rel
			for _, a := range r.Pos {
				if idb.Has(a.Rel) && rho[a.Rel] > rho[h] {
					rho[h] = rho[a.Rel]
					changed = true
				}
			}
			for _, a := range r.Neg {
				if idb.Has(a.Rel) && rho[a.Rel]+1 > rho[h] {
					rho[h] = rho[a.Rel] + 1
					changed = true
				}
			}
			if rho[h] > limit {
				return nil, fmt.Errorf("datalog: program is not syntactically stratifiable (cycle through negation involving %s)", h)
			}
		}
		if !changed {
			return rho, nil
		}
	}
}

// IsStratifiable reports whether the program is syntactically
// stratifiable. All semi-positive programs are.
func (p *Program) IsStratifiable() bool {
	_, err := p.Stratify()
	return err == nil
}

// Strata partitions the rules by the stratum number of their head
// predicate under the given stratification, returning the sequence
// P1, ..., Pk of semi-positive programs of Section 2. Strata with no
// rules are elided.
func (p *Program) Strata(rho Stratification) [][]Rule {
	byStratum := make(map[int][]Rule)
	for _, r := range p.Rules {
		n := rho[r.Head.Rel]
		byStratum[n] = append(byStratum[n], r)
	}
	nums := make([]int, 0, len(byStratum))
	for n := range byStratum {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	out := make([][]Rule, 0, len(nums))
	for _, n := range nums {
		out = append(out, byStratum[n])
	}
	return out
}

// checkStratification verifies that rho is a valid syntactic
// stratification for the program.
func (p *Program) checkStratification(rho Stratification) error {
	idb := p.IDB()
	for rel := range idb {
		if _, ok := rho[rel]; !ok {
			return fmt.Errorf("datalog: stratification misses idb predicate %s", rel)
		}
	}
	for _, r := range p.Rules {
		h := r.Head.Rel
		for _, a := range r.Pos {
			if idb.Has(a.Rel) && rho[a.Rel] > rho[h] {
				return fmt.Errorf("datalog: rule %v violates ρ(%s) ≤ ρ(%s)", r, a.Rel, h)
			}
		}
		for _, a := range r.Neg {
			if idb.Has(a.Rel) && rho[a.Rel] >= rho[h] {
				return fmt.Errorf("datalog: rule %v violates ρ(%s) < ρ(%s)", r, a.Rel, h)
			}
		}
	}
	return nil
}

// EvalStratified computes P(I) under the stratified semantics: the
// strata are evaluated in order, each as a semi-positive fixpoint over
// the accumulated instance. The result contains the input facts and
// all derived idb facts. The input must be over edb(P); facts over
// idb relations in the input are rejected.
func (p *Program) EvalStratified(input *fact.Instance, opts FixpointOptions) (*fact.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	idb := p.IDB()
	var bad fact.Fact
	found := false
	input.Each(func(f fact.Fact) bool {
		if idb.Has(f.Rel()) {
			bad, found = f, true
			return false
		}
		return true
	})
	if found {
		return nil, fmt.Errorf("datalog: input fact %v is over idb relation %s", bad, bad.Rel())
	}

	rho, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	return EvalStrata(p.Strata(rho), nil, 0, input, opts)
}

// Eval computes P(I) with default options (semi-naive evaluation),
// using the stratified semantics. For semi-positive programs this
// coincides with Fixpoint.
func (p *Program) Eval(input *fact.Instance) (*fact.Instance, error) {
	return p.EvalStratified(input, FixpointOptions{Mode: SemiNaive})
}
