package queries

import (
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/monotone"
)

// This file implements the well-founded semantics for Datalog¬ via the
// alternating-fixpoint construction (Van Gelder), which the paper's
// conclusion invokes for win-move and the "doubled program" remark.
// win-move — Win(x) :- Move(x,y), ¬Win(y) — is the canonical
// non-stratifiable program; Zinn et al. [32] showed the corresponding
// query is computable coordination-free under domain guidance, i.e.
// win-move ∈ Mdisjoint (one of the headline results this repository
// reproduces).

// WFSResult is a three-valued model: True holds the well-founded true
// facts, Undefined the facts that are neither true nor false.
type WFSResult struct {
	True      *fact.Instance
	Undefined *fact.Instance
}

// posRule is one program rule as gamma evaluates it: the positive part
// (head, positive atoms, inequalities) compiled for enumeration, and
// the negated atoms gamma checks against its assumed instance itself.
type posRule struct {
	c   *datalog.CompiledRule
	neg []datalog.Atom
}

// gamma computes Γ(assumed): the least fixpoint of the program with
// every negated atom ¬A evaluated against the fixed instance assumed
// (A is "false" iff A ∉ assumed). The result contains the input facts
// plus all derived facts. Γ is antimonotone in assumed, which drives
// the alternating fixpoint.
func gamma(rules []posRule, input, assumed *fact.Instance) (*fact.Instance, error) {
	// The index over the accumulated facts persists across rounds.
	x := datalog.IndexInstance(input)
	for {
		var derived []fact.Fact
		for _, r := range rules {
			err := x.Valuations(r.c, -1, nil, nil, func(v *datalog.Valuation) error {
				for _, a := range r.neg {
					g, err := v.Ground(a)
					if err != nil {
						return err
					}
					if assumed.Has(g) {
						return nil // negation fails
					}
				}
				h, err := v.Head()
				if err == nil && !x.Has(h) {
					derived = append(derived, h)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		changed := false
		for _, h := range derived {
			if x.Add(h) {
				changed = true
			}
		}
		if !changed {
			return x.Instance(), nil
		}
	}
}

// WellFounded computes the well-founded model of the program on the
// input by the alternating fixpoint: the sequence
// U₀ = lfp Γ²(∅-assumption), with T the limit of the increasing
// underestimates and Γ(T) the limit of the decreasing overestimates.
func WellFounded(p *datalog.Program, input *fact.Instance) (*WFSResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rules := make([]posRule, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = posRule{datalog.Compile(datalog.Rule{Head: r.Head, Pos: r.Pos, Ineq: r.Ineq}), r.Neg}
	}
	under := input.Clone() // underestimate of true facts (no idb assumed)
	for {
		over, err := gamma(rules, input, under) // overestimate (non-false facts)
		if err != nil {
			return nil, err
		}
		next, err := gamma(rules, input, over) // improved underestimate
		if err != nil {
			return nil, err
		}
		if next.Equal(under) {
			return &WFSResult{
				True:      under,
				Undefined: over.Minus(under),
			}, nil
		}
		under = next
	}
}

// WinMoveProgram returns the win-move program
// Win(x) :- Move(x,y), ¬Win(y).
func WinMoveProgram() *datalog.Program {
	return datalog.MustParseProgram(`Win(x) :- Move(x,y), !Win(y).`)
}

// MoveSchema is the input schema of the win-move query.
var MoveSchema = fact.MustSchema(map[string]int{"Move": 2})

// WinMove returns the win-move query: the positions that are won under
// the well-founded semantics of Win(x) :- Move(x,y), ¬Win(y), output
// as O(x). Non-monotone; in Mdisjoint (Zinn et al. [32]; reproved via
// connectedness in this paper's conclusion).
func WinMove() monotone.Query {
	prog := WinMoveProgram()
	out1 := fact.MustSchema(map[string]int{"O": 1})
	return monotone.NewFunc("win-move", MoveSchema, out1, func(i *fact.Instance) (*fact.Instance, error) {
		res, err := WellFounded(prog, i)
		if err != nil {
			return nil, err
		}
		out := fact.NewInstance()
		for _, f := range res.True.Rel("Win") {
			out.Add(fact.New("O", f.Arg(0)))
		}
		return out, nil
	})
}

// WinMoveThreeValued returns the three-valued win-move query: the
// full classification of positions as Won(x), Lost(x) or Drawn(x)
// under the well-founded semantics. Like WinMove it is in
// Mdisjoint \ Mdistinct — all three output relations distribute over
// the components of the game graph.
func WinMoveThreeValued() monotone.Query {
	out := fact.MustSchema(map[string]int{"Won": 1, "Lost": 1, "Drawn": 1})
	return monotone.NewFunc("win-move-3v", MoveSchema, out, func(i *fact.Instance) (*fact.Instance, error) {
		won, lost, drawn, err := WinMoveClassified(i)
		if err != nil {
			return nil, err
		}
		res := fact.NewInstance()
		for v := range won {
			res.Add(fact.New("Won", v))
		}
		for v := range lost {
			res.Add(fact.New("Lost", v))
		}
		for v := range drawn {
			res.Add(fact.New("Drawn", v))
		}
		return res, nil
	})
}

// WinMoveClassified returns, for reporting, the won / lost / drawn
// positions of the game graph: won = Win true, drawn = Win undefined,
// lost = positions (active-domain values) where Win is false.
func WinMoveClassified(i *fact.Instance) (won, lost, drawn fact.ValueSet, err error) {
	res, err := WellFounded(WinMoveProgram(), i)
	if err != nil {
		return nil, nil, nil, err
	}
	won, lost, drawn = make(fact.ValueSet), make(fact.ValueSet), make(fact.ValueSet)
	for _, f := range res.True.Rel("Win") {
		won.Add(f.Arg(0))
	}
	for _, f := range res.Undefined.Rel("Win") {
		drawn.Add(f.Arg(0))
	}
	for v := range i.ADom() {
		if !won.Has(v) && !drawn.Has(v) {
			lost.Add(v)
		}
	}
	return won, lost, drawn, nil
}
