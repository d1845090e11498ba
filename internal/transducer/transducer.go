package transducer

import (
	"fmt"
	"strings"

	"repro/internal/fact"
)

// System relation names (Section 4.1.2). The policyR relations are
// named by prefixing the input relation name.
const (
	RelId        = "Id"
	RelAll       = "All"
	RelMyAdom    = "MyAdom"
	PolicyPrefix = "Policy_"
)

// PolicyRel returns the name of the policyR system relation for input
// relation rel.
func PolicyRel(rel string) string { return PolicyPrefix + rel }

// Schema is a transducer schema Υ: the four user-controlled schemas
// (input, output, message, memory); the system schema is implied by
// the model and the input schema.
type Schema struct {
	In, Out, Msg, Mem fact.Schema
}

// Validate checks that the four schemas have pairwise disjoint
// relation names and reserve no system names.
func (s Schema) Validate() error {
	parts := []struct {
		name string
		sch  fact.Schema
	}{{"input", s.In}, {"output", s.Out}, {"message", s.Msg}, {"memory", s.Mem}}
	seen := make(map[string]string)
	for _, part := range parts {
		for rel := range part.sch {
			if prev, ok := seen[rel]; ok {
				return fmt.Errorf("transducer: relation %s declared in both %s and %s schemas", rel, prev, part.name)
			}
			seen[rel] = part.name
			if rel == RelId || rel == RelAll || rel == RelMyAdom || strings.HasPrefix(rel, PolicyPrefix) {
				return fmt.Errorf("transducer: relation name %s is reserved for the system schema", rel)
			}
		}
	}
	return nil
}

// Model selects which system relations a transducer can see,
// identifying the model variants of Sections 4.1 and 4.3.
type Model struct {
	// ShowId exposes Id(x) at node x. Oblivious transducers lack it.
	ShowId bool
	// ShowAll exposes All(y) for every node y. The A0/A1/A2 variants
	// of Theorem 4.5 drop it; the active-domain base A then shrinks
	// from N ∪ adom(J) to {x} ∪ adom(J).
	ShowAll bool
	// ShowMyAdom exposes MyAdom(a) for each a in the base A.
	ShowMyAdom bool
	// ShowPolicy exposes Policy_R(ā) for the tuples ā over A that x
	// is responsible for.
	ShowPolicy bool
}

// The models studied in the paper.
var (
	// Original is the transducer model of [13]: Id and All only (F0).
	Original = Model{ShowId: true, ShowAll: true}
	// PolicyAware is the model of [32]: adds MyAdom and policyR (F1;
	// F2 when the distribution policy is domain-guided).
	PolicyAware = Model{ShowId: true, ShowAll: true, ShowMyAdom: true, ShowPolicy: true}
	// OriginalNoAll is the original model without All (the A0 variant).
	OriginalNoAll = Model{ShowId: true}
	// PolicyAwareNoAll is the policy-aware model without All (A1/A2).
	PolicyAwareNoAll = Model{ShowId: true, ShowMyAdom: true, ShowPolicy: true}
	// Oblivious has neither Id nor All (Section 4.3, last remark).
	Oblivious = Model{}
)

// Query is one of the four transducer queries: a deterministic mapping
// from the visible instance D (input ∪ output ∪ message ∪ memory ∪
// system facts) to facts over the query's target schema.
type Query func(d *fact.Instance) (*fact.Instance, error)

// Transducer is a (policy-aware) relational transducer Π over a
// schema Υ: the quadruple (Qout, Qins, Qdel, Qsnd) of Section 4.1.2.
// Nil queries behave as constant-empty.
type Transducer struct {
	Schema Schema
	// Out produces new output facts (target schema Out). Output facts
	// accumulate and are never retracted.
	Out Query
	// Ins and Del produce memory insertions and deletions (target
	// schema Mem); inserted-and-deleted facts cancel out per the
	// transition semantics.
	Ins Query
	Del Query
	// Snd produces message facts (target schema Msg) that are
	// broadcast to every other node.
	Snd Query
	// Delta, when set, is the insert-only form of the four queries, for
	// a transducer that never deletes. It reads the system relations
	// only through the System view it is handed. It must add to the
	// state and send exactly what Out, Ins and Snd would from every
	// configuration the transducer's own transitions (and crashes)
	// reach. Stepper.Step then runs it in place of the four queries;
	// clearing the field restores full re-evaluation.
	Delta DeltaFunc
}

// DeltaFunc is a pure function of the active node's parts — its input
// fragment, its state and the delivered message set — and of the system
// relations the model shows it, read through sys. It probes them by
// membership, without materialising the visible instance D or S.
type DeltaFunc func(local, state, m *fact.Instance, sys System) (Delta, error)

// Delta is what one insert-only transition adds: output facts, memory
// insertions and the send set, each over the same target schema as the
// query it stands for. A nil instance is empty; Out and Ins may list
// facts the state already holds.
type Delta struct {
	Out, Ins, Snd *fact.Instance
}

// Validate checks the schema.
func (t *Transducer) Validate() error {
	return t.Schema.Validate()
}

// runQuery evaluates a possibly-nil query and verifies the result is
// over the target schema.
func runQuery(q Query, d *fact.Instance, target fact.Schema, what string) (*fact.Instance, error) {
	if q == nil {
		return fact.NewInstance(), nil
	}
	out, err := q(d)
	if err != nil {
		return nil, fmt.Errorf("transducer: %s query: %w", what, err)
	}
	return checkTarget(out, target, what)
}

// checkTarget verifies that what a query (or its insert-only form)
// produced is over the target schema; nil reads as empty. The walk is
// by IDs and looks a column's relation up once, at its first row.
func checkTarget(out *fact.Instance, target fact.Schema, what string) (*fact.Instance, error) {
	if out == nil {
		return fact.NewInstance(), nil
	}
	var bad *fact.Fact
	okRel, okArity := fact.NoID, 0
	out.EachIDs(func(rel fact.ID, args []fact.ID) bool {
		if rel == okRel && len(args) == okArity {
			return true
		}
		if ar, ok := target.Arity(string(fact.Symbol(rel))); !ok || ar != len(args) {
			f := fact.FromIDs(rel, args)
			bad = &f
			return false
		}
		okRel, okArity = rel, len(args)
		return true
	})
	if bad != nil {
		return nil, fmt.Errorf("transducer: %s query produced fact %v outside its target schema %v", what, *bad, target)
	}
	return out, nil
}
