package datalog

import (
	"fmt"
	"sort"

	"repro/internal/fact"
)

// This file packages a Datalog¬ program as a query in the paper's
// sense (Section 2): a generic mapping from instances over an input
// schema σ to instances over an output schema σ'. A program P computes
// the query Q when Q(I) = P(I)|σ' for all I over σ. By the paper's
// convention the relation "O" denotes the intended output; NewQuery
// lets callers pick any set of output relations.

// AdomRelation is the conventional name of the unary active-domain
// relation used by the paper's example programs.
const AdomRelation = "Adom"

// Query evaluates a Datalog¬ program and restricts the result to the
// designated output relations. It satisfies the monotone.Query
// interface structurally.
type Query struct {
	prog *Program
	in   fact.Schema
	out  fact.Schema
	name string
}

// NewQuery wraps the program as a query from its edb schema to the
// given output relations (which must be idb relations of the program).
func NewQuery(p *Program, outputRels ...string) (*Query, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(outputRels) == 0 {
		return nil, fmt.Errorf("datalog: query needs at least one output relation")
	}
	idb := p.IDB()
	out := make(fact.Schema)
	for _, rel := range outputRels {
		ar, ok := idb.Arity(rel)
		if !ok {
			return nil, fmt.Errorf("datalog: output relation %s is not an idb relation of the program", rel)
		}
		out[rel] = ar
	}
	return &Query{
		prog: p,
		in:   p.EDB(),
		out:  out,
		name: fmt.Sprintf("datalog[%v→%v]", p.EDB(), out),
	}, nil
}

// MustQuery is like NewQuery but panics on error.
func MustQuery(p *Program, outputRels ...string) *Query {
	q, err := NewQuery(p, outputRels...)
	if err != nil {
		panic(err)
	}
	return q
}

// Program returns the underlying program.
func (q *Query) Program() *Program { return q.prog }

// InputSchema returns σ, the edb schema of the program.
func (q *Query) InputSchema() fact.Schema { return q.in.Clone() }

// OutputSchema returns σ', the designated output schema.
func (q *Query) OutputSchema() fact.Schema { return q.out.Clone() }

// Name returns a human-readable label for the query.
func (q *Query) Name() string { return q.name }

// SetName overrides the label.
func (q *Query) SetName(n string) *Query { q.name = n; return q }

// Eval computes Q(I) = P(I)|σ'.
func (q *Query) Eval(input *fact.Instance) (*fact.Instance, error) {
	full, err := q.prog.EvalStratified(input, FixpointOptions{})
	if err != nil {
		return nil, err
	}
	return full.Restrict(q.out), nil
}

// WithAdomRules returns a copy of the program extended with the rules
// that compute the conventional Adom relation as the union of the
// projections of every position of every edb relation (Section 2: "We
// omit the rules to compute Adom"). These rules are connected (each
// has a single positive atom), so adding them never changes the
// con/semicon classification of the rest of the program.
func WithAdomRules(p *Program) *Program {
	out := NewProgram(append([]Rule{}, p.Rules...)...)
	edb := p.EDB()
	names := edb.Names()
	sort.Strings(names)
	for _, rel := range names {
		if rel == AdomRelation {
			continue
		}
		ar, _ := edb.Arity(rel)
		for pos := 0; pos < ar; pos++ {
			vars := make([]string, ar)
			for i := range vars {
				vars[i] = fmt.Sprintf("x%d", i)
			}
			out.Rules = append(out.Rules, Rule{
				Head: AtomV(AdomRelation, vars[pos]),
				Pos:  []Atom{AtomV(rel, vars...)},
			})
		}
	}
	return out
}
