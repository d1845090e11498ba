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

// alternate runs the alternating fixpoint from the underestimate under:
// step(U) returns the overestimate Γ(U) and the improved underestimate
// Γ(Γ(U)), idb facts only, and at the fixed point U = Γ(Γ(U)) the
// well-founded model has U true and Γ(U) \ U undefined.
func alternate(input, under *fact.Instance, step func(under *fact.Instance) (over, next *fact.Instance, err error)) (*WFSResult, error) {
	for {
		over, next, err := step(under)
		if err != nil {
			return nil, err
		}
		if next.Equal(under) {
			return &WFSResult{True: input.Union(under), Undefined: over.Minus(under)}, nil
		}
		under = next
	}
}

// WellFounded computes the well-founded model of the program on the
// input by the alternating fixpoint: the sequence
// U₀ = lfp Γ²(∅-assumption), with T the limit of the increasing
// underestimates and Γ(T) the limit of the decreasing overestimates.
// Γ(A) is the least fixpoint of the program with every negated idb atom
// ¬R(t) read as R(t) ∉ A: one Fixpoint of the semi-positive program
// whose negated idb atoms name input copies holding A (renamed). Γ is
// antimonotone in A, which drives the alternation.
func WellFounded(p *datalog.Program, input *fact.Instance) (*WFSResult, error) {
	idb, err := doubledIDB(p)
	if err != nil {
		return nil, err
	}
	g := &datalog.Program{Rules: renamed(p, idb, "", underSuffix)}
	lfp := func(assumed *fact.Instance) (*fact.Instance, error) {
		res, err := g.Fixpoint(withCopies(input, assumed), datalog.FixpointOptions{})
		if err != nil {
			return nil, err
		}
		return res.Restrict(idb), nil
	}
	return alternate(input, input.Restrict(idb), func(under *fact.Instance) (over, next *fact.Instance, err error) {
		if over, err = lfp(under); err == nil {
			next, err = lfp(over)
		}
		return over, next, err
	})
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
