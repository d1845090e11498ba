package ilog

import (
	"errors"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/obs"
)

// This file evaluates ILOG¬ programs under the stratified semantics on
// the Datalog engine's stratum loop (datalog.EvalStrata): each rule is
// lowered through body(), and an invention rule's head gains position
// 0, which a head hook fills with the Skolem value of the rest of the
// head, so the same valuation always invents the same value, as
// Skolemization requires. The loop is semi-naive: an invented value is
// a function of its valuation, so a valuation that touches no new row
// invents nothing new.

// Options bounds the fixpoint. Because value invention can diverge
// (the output is then undefined), both a round bound and a size bound
// are enforced; exceeding either yields ErrDiverged.
type Options struct {
	// MaxRounds caps the number of immediate-consequence rounds per
	// stratum, the round that confirms the fixpoint included. Zero
	// means DefaultMaxRounds.
	MaxRounds int
	// MaxFacts caps the size of the accumulated instance, checked
	// after every round of a stratum that invents. Zero means
	// DefaultMaxFacts.
	MaxFacts int
	// Reg, when non-nil, receives the ilog.* metrics of internal/obs
	// names.go and the engine's dl.* counters.
	Reg *obs.Registry
	// Tracer, when non-nil, receives the deterministic round/stratum
	// event stream. Leaving both nil keeps the disabled fast path.
	Tracer *obs.Tracer
}

// Default evaluation bounds.
const (
	DefaultMaxRounds = 10_000
	DefaultMaxFacts  = 1_000_000
)

// rounds is MaxRounds as the engine's bound, which counts productive
// rounds only: one fewer, where -1 admits none.
func (o Options) rounds() int {
	switch {
	case o.MaxRounds <= 0:
		return DefaultMaxRounds - 1
	case o.MaxRounds == 1:
		return -1
	}
	return o.MaxRounds - 1
}

func (o Options) facts() int {
	if o.MaxFacts > 0 {
		return o.MaxFacts
	}
	return DefaultMaxFacts
}

// skolemHook returns the head hook of invention relation rel: position
// 0 becomes the interned Skolem value of the positions after it.
func skolemHook(rel string) datalog.HeadHook {
	return func(head []fact.ID) {
		args := make([]fact.Value, len(head)-1)
		for i, id := range head[1:] {
			args[i] = fact.Symbol(id)
		}
		head[0] = fact.Intern(skolemValue(rel, args))
	}
}

// Eval computes the output of the program on the input under the
// stratified semantics, or ErrDiverged when a bound trips (output
// undefined). The result contains input and all derived facts,
// including facts carrying invented values.
func (p *Program) Eval(input *fact.Instance, opts Options) (*fact.Instance, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	for _, r := range p.Rules {
		if fs := input.Rel(r.Head.Rel); len(fs) > 0 {
			return nil, fmt.Errorf("ilog: input fact %v is over idb relation %s", fs[0], r.Head.Rel)
		}
	}
	d := p.body()
	rho, err := d.Stratify()
	if err != nil {
		return nil, err
	}
	hooks := make(map[string]datalog.HeadHook)
	for rel := range p.inventionRelations() {
		hooks[rel] = skolemHook(rel)
	}
	sp := obs.SpanCtx{}.Start("", opts.Reg.Latency(obs.IlogEvalNs))
	out, err := datalog.EvalStrata(d.Strata(rho), hooks, opts.facts(), input,
		datalog.FixpointOptions{MaxRounds: opts.rounds(), Reg: opts.Reg, Tracer: opts.Tracer})
	if errors.Is(err, datalog.ErrBound) {
		return nil, ErrDiverged
	}
	if err != nil {
		return nil, err
	}
	opts.Reg.Gauge(obs.IlogFacts).Set(int64(out.Len()))
	sp.Finish()
	return out, nil
}

// EvalQuery evaluates the program and restricts the result to the
// given output relations, additionally enforcing the ILOG¬ safety
// condition: the output must contain no invented values. Weakly safe
// programs satisfy this by construction (Section 5.2).
func (p *Program) EvalQuery(input *fact.Instance, outputRels []string, opts Options) (*fact.Instance, error) {
	full, err := p.Eval(input, opts)
	if err != nil {
		return nil, err
	}
	idb := p.idb()
	out := make(fact.Schema)
	for _, rel := range outputRels {
		ar, ok := idb.Arity(rel)
		if !ok {
			return nil, fmt.Errorf("ilog: output relation %s is not an idb relation", rel)
		}
		out[rel] = ar
	}
	result := full.Restrict(out)
	for _, f := range result.Facts() {
		for i := 0; i < f.Arity(); i++ {
			if isInvented(f.Arg(i)) {
				return nil, fmt.Errorf("ilog: unsafe program: invented value leaked into output fact %v", f)
			}
		}
	}
	return result, nil
}
