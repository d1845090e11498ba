package ilog

import (
	"fmt"
	"sort"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/obs"
)

// This file evaluates ILOG¬ programs under the stratified semantics:
// strata are evaluated in order, each as a fixpoint where valuations
// of the Skolemized rules are taken over the Herbrand universe — in
// practice, over the facts accumulated so far, whose values may
// already be invented terms. A fresh invention for the same valuation
// always yields the same Skolem value, as Skolemization requires.

// Options bounds the fixpoint. Because value invention can diverge
// (the output is then undefined), both a round bound and a size bound
// are enforced; exceeding either yields ErrDiverged.
type Options struct {
	// MaxRounds caps the number of immediate-consequence rounds per
	// stratum. Zero means DefaultMaxRounds.
	MaxRounds int
	// MaxFacts caps the size of the accumulated instance. Zero means
	// DefaultMaxFacts.
	MaxFacts int
	// Reg, when non-nil, receives evaluator metrics (the ilog.*
	// vocabulary of internal/obs names.go).
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

func (o Options) rounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return DefaultMaxRounds
}

func (o Options) facts() int {
	if o.MaxFacts > 0 {
		return o.MaxFacts
	}
	return DefaultMaxFacts
}

// Stratify computes Datalog¬'s minimal stratification of the head
// relations.
func (p *Program) Stratify() (datalog.Stratification, error) { return p.body().Stratify() }

// IsStratifiable reports whether the program admits a syntactic
// stratification.
func (p *Program) IsStratifiable() bool { return p.body().IsStratifiable() }

// strata partitions the rules by head stratum number.
func (p *Program) strata(rho datalog.Stratification) [][]Rule {
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

// deriveHead grounds the head of the rule under the valuation,
// inventing a Skolem value for invention rules.
func deriveHead(r Rule, v *datalog.Valuation) (fact.Fact, error) {
	if !r.Invents {
		return v.Head() // compiled as the rule's own head
	}
	var plain fact.Tuple
	if len(r.Head.Args) > 0 {
		g, err := v.Ground(r.Head)
		if err != nil {
			return fact.Fact{}, err
		}
		plain = g.Args()
	}
	args := append(fact.Tuple{SkolemValue(r.Head.Rel, plain)}, plain...)
	return fact.FromTuple(r.Head.Rel, args), nil
}

// Eval computes the output of the program on the input under the
// stratified semantics, or ErrDiverged when a bound trips (output
// undefined). The result contains input and all derived facts,
// including facts carrying invented values.
func (p *Program) Eval(input *fact.Instance, opts Options) (*fact.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	idb := p.IDB()
	var badFact *fact.Fact
	input.Each(func(f fact.Fact) bool {
		if idb.Has(f.Rel()) {
			g := f
			badFact = &g
			return false
		}
		return true
	})
	if badFact != nil {
		return nil, fmt.Errorf("ilog: input fact %v is over idb relation %s", *badFact, badFact.Rel())
	}
	rho, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	// One incrementally-maintained index is shared by every round of
	// every stratum; rebuilding it per valuation call made the
	// evaluator quadratic in the number of rounds.
	sp := obs.SpanCtx{}.Start("", opts.Reg.Latency(obs.IlogEvalNs))
	x := datalog.IndexInstance(input)
	for i, stratum := range p.strata(rho) {
		if err := fixpoint(stratum, x, opts, i+1); err != nil {
			return nil, err
		}
	}
	opts.Reg.Gauge(obs.IlogFacts).Set(int64(x.Len()))
	sp.Finish()
	return x.Instance(), nil
}

// pendingFact is one head fact awaiting the round barrier, tagged with
// whether its rule invents (for the ilog.invented counter).
type pendingFact struct {
	f       fact.Fact
	invents bool
}

// compile lowers the rule's body for valuation enumeration. The head
// is built from the source rule per valuation (deriveHead), so an
// invention rule, whose listed head may have no arguments at all,
// compiles with its first positive atom standing in as a safe head.
func (r Rule) compile() *datalog.CompiledRule {
	d := r.asDatalogRule()
	if r.Invents {
		d.Head = r.Pos[0]
	}
	return datalog.Compile(d)
}

func fixpoint(rules []Rule, x *datalog.IndexedInstance, opts Options, stratum int) error {
	instrumented := opts.Reg != nil || opts.Tracer != nil
	compiled := make([]*datalog.CompiledRule, len(rules))
	for i, r := range rules {
		compiled[i] = r.compile()
	}
	var sDerived, sInvented int64
	for round := 0; ; round++ {
		if round >= opts.rounds() {
			return ErrDiverged
		}
		var derived []pendingFact
		for i, r := range rules {
			if err := x.Valuations(compiled[i], -1, nil, nil, func(v *datalog.Valuation) error {
				h, err := deriveHead(r, v)
				if err == nil && !x.Has(h) {
					derived = append(derived, pendingFact{h, r.Invents})
				}
				return err
			}); err != nil {
				return err
			}
		}
		changed := false
		var rDerived, rInvented int64
		for _, p := range derived {
			if x.Add(p.f) {
				changed = true
				rDerived++
				if p.invents {
					rInvented++
				}
			}
		}
		if instrumented {
			sDerived += rDerived
			sInvented += rInvented
			opts.Reg.Counter(obs.IlogRounds).Inc()
			opts.Reg.Counter(obs.IlogDerivations).Add(rDerived)
			opts.Reg.Counter(obs.IlogInvented).Add(rInvented)
			if opts.Tracer != nil {
				opts.Tracer.Emit(obs.EvIlogRound,
					obs.F("stratum", stratum),
					obs.F("round", round),
					obs.F("derived", rDerived),
					obs.F("invented", rInvented),
					obs.F("facts", x.Len()))
			}
		}
		if x.Len() > opts.facts() {
			return ErrDiverged
		}
		if !changed {
			if opts.Tracer != nil {
				opts.Tracer.Emit(obs.EvIlogStratum,
					obs.F("stratum", stratum),
					obs.F("rounds", round+1),
					obs.F("derived", sDerived),
					obs.F("invented", sInvented))
			}
			return nil
		}
	}
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
	idb := p.IDB()
	out := make(fact.Schema)
	for _, rel := range outputRels {
		ar, ok := idb.Arity(rel)
		if !ok {
			return nil, fmt.Errorf("ilog: output relation %s is not an idb relation", rel)
		}
		out[rel] = ar
	}
	result := full.Restrict(out)
	var leaked *fact.Fact
	result.Each(func(f fact.Fact) bool {
		for i := 0; i < f.Arity(); i++ {
			if IsInvented(f.Arg(i)) {
				g := f
				leaked = &g
				return false
			}
		}
		return true
	})
	if leaked != nil {
		return nil, fmt.Errorf("ilog: unsafe program: invented value leaked into output fact %v", *leaked)
	}
	return result, nil
}
