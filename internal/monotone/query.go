// Package monotone implements the monotonicity framework of Section 3
// of the paper: the classes M (monotone), Mdistinct
// (domain-distinct-monotone) and Mdisjoint (domain-disjoint-monotone),
// their bounded variants Mⁱ, Mⁱdistinct and Mⁱdisjoint, and the
// preservation classes H (homomorphisms), Hinj (injective
// homomorphisms) and E (extensions) of Section 3.2.
//
// Membership of a query in one of these classes quantifies over all
// instance pairs; this package provides the two finite proxies used
// throughout the reproduction: randomized/exhaustive violation search
// (soundness evidence for membership) and exact checking of the
// paper's explicit counterexample pairs (proof of non-membership).
package monotone

import (
	"fmt"

	"repro/internal/fact"
)

// Query is the paper's notion of a query (Section 2): a generic
// mapping from instances over an input schema to instances over an
// output schema. datalog.Query and the native queries in
// internal/queries satisfy this interface structurally.
type Query interface {
	// InputSchema returns σ, the schema of admissible inputs.
	InputSchema() fact.Schema
	// OutputSchema returns σ', the schema of outputs.
	OutputSchema() fact.Schema
	// Eval computes Q(I). Implementations must be deterministic;
	// an error signals an undefined output (e.g. diverging ILOG).
	Eval(*fact.Instance) (*fact.Instance, error)
	// Name is a human-readable label used in reports.
	Name() string
}

// Grower is a query in class M that extends an answer it already
// holds. In M, Q(K) ⊆ Q(K ∪ ΔK), so a holder of Q(K) only lacks what
// ΔK adds. Grow adds to into exactly Q(K ∪ ΔK) \ Q(K), where the facts
// of held over the output schema are Q(K) and added is ΔK (it may
// overlap K). Grow reads held and added only, and into must hold no
// output facts on entry.
type Grower interface {
	Query
	Grow(held, added, into *fact.Instance)
}

// Func adapts a plain Go function to the Query interface.
type Func struct {
	name string
	in   fact.Schema
	out  fact.Schema
	eval func(*fact.Instance) (*fact.Instance, error)
}

// NewFunc builds a Query from a function.
func NewFunc(name string, in, out fact.Schema, eval func(*fact.Instance) (*fact.Instance, error)) *Func {
	return &Func{name: name, in: in, out: out, eval: eval}
}

// NewGraphFunc builds a Query over the binary edge relation E, the
// schema of all the paper's separating examples.
func NewGraphFunc(name string, out fact.Schema, eval func(*fact.Instance) (*fact.Instance, error)) *Func {
	return NewFunc(name, fact.GraphSchema(), out, eval)
}

// InputSchema implements Query.
func (f *Func) InputSchema() fact.Schema { return f.in.Clone() }

// OutputSchema implements Query.
func (f *Func) OutputSchema() fact.Schema { return f.out.Clone() }

// Eval implements Query.
func (f *Func) Eval(i *fact.Instance) (*fact.Instance, error) { return f.eval(i) }

// Name implements Query.
func (f *Func) Name() string { return f.name }

var _ Query = (*Func)(nil)

// CheckInput verifies that the instance is over the query's input schema.
func CheckInput(q Query, i *fact.Instance) error {
	sigma := q.InputSchema()
	var bad *fact.Fact
	i.Each(func(f fact.Fact) bool {
		if !sigma.Covers(f) {
			g := f
			bad = &g
			return false
		}
		return true
	})
	if bad != nil {
		return fmt.Errorf("monotone: input fact %v not over schema %v of %s", *bad, sigma, q.Name())
	}
	return nil
}
