package datalog

import (
	"errors"
	"fmt"

	"repro/internal/fact"
	"repro/internal/obs"
)

// This file implements the semantics of semi-positive Datalog¬
// programs (Section 2): the immediate consequence operator TP and its
// minimal fixpoint, with three interchangeable evaluation strategies —
// naive (recompute all rules each round; the correctness oracle),
// semi-naive (each round only joins that touch at least one
// newly-derived fact; the default), and parallel (semi-naive with the
// joins of a wide round fanned across GOMAXPROCS goroutines; see
// parallel.go).
// Stratified programs are evaluated stratum by stratum in stratify.go.
//
// All modes run the same round (parallel.go) over compiled rules
// (compile.go): joins bind interned IDs into slot environments and
// derived heads are deduplicated against packed ID tuples, so the
// per-candidate and per-duplicate hot path performs no string work and
// no allocation, and a new head is appended to a row table without
// ever becoming a Fact.

// EvalMode selects the fixpoint evaluation strategy.
type EvalMode int

const (
	// SemiNaive evaluates deltas only; the default.
	SemiNaive EvalMode = iota
	// Naive re-evaluates every rule against the full instance each
	// round. Quadratically slower; kept as an oracle and for the
	// ablation benchmark.
	Naive
	// Parallel is semi-naive with each round's (rule, delta-chunk)
	// join tasks fanned across GOMAXPROCS goroutines. They derive into
	// private buffers that the round barrier appends in task order, so
	// the result is identical to SemiNaive. Rounds whose pinned work is
	// below the inline threshold run on the coordinator instead (see
	// parallel.go).
	Parallel
)

// String returns the mode's canonical CLI spelling.
func (m EvalMode) String() string {
	switch m {
	case SemiNaive:
		return "seminaive"
	case Naive:
		return "naive"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("EvalMode(%d)", int(m))
	}
}

// ParseEvalMode parses a mode name as spelled by String — "seminaive",
// "naive" or "parallel".
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "seminaive":
		return SemiNaive, nil
	case "naive":
		return Naive, nil
	case "parallel":
		return Parallel, nil
	default:
		return 0, fmt.Errorf("datalog: unknown evaluation mode %q (want seminaive, naive or parallel)", s)
	}
}

// FixpointOptions configures fixpoint evaluation.
type FixpointOptions struct {
	Mode EvalMode
	// MaxRounds bounds the number of productive TP applications —
	// rounds that derive at least one new fact; the final pass that
	// merely confirms the fixpoint is free. 0 means unbounded, and a
	// negative bound admits none.
	// Datalog¬ fixpoints always terminate on finite inputs, so the
	// bound exists only for defensive use. All modes enforce the bound
	// identically: a program whose fixpoint needs k productive rounds
	// succeeds iff MaxRounds == 0 or MaxRounds >= k.
	MaxRounds int
	// Reg, when non-nil, receives engine metrics (counters, per-rule
	// work, worker utilization, wall-clock spans). See internal/obs
	// names.go for the dl.* vocabulary.
	Reg *obs.Registry
	// Tracer, when non-nil, receives the deterministic structured event
	// stream (dl.round / dl.stratum / dl.fixpoint): a pure function of
	// (program, input, mode, GOMAXPROCS), byte-identical across repeated
	// runs regardless of scheduling. Leaving both nil keeps the
	// disabled fast path.
	Tracer *obs.Tracer
}

// Fixpoint computes the minimal fixpoint of the TP operator for a
// semi-positive program on the input instance: the output P(I) of
// Section 2, containing the input facts plus everything derivable.
//
// The program must be semi-positive — negated relations must not
// occur in rule heads — otherwise the fixpoint is not well defined and
// an error is returned. For stratified programs use EvalStratified.
func (p *Program) Fixpoint(input *fact.Instance, opts FixpointOptions) (*fact.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.isSemiPositive() {
		return nil, fmt.Errorf("datalog: Fixpoint requires a semi-positive program; use EvalStratified")
	}
	return EvalStrata([][]Rule{p.Rules}, nil, 0, input, opts)
}

// HeadHook fills position 0 of an invention rule's head, the position
// its head atom does not list, from positions 1.., which the engine
// grounds from the atom. It runs once per derivation, before the
// duplicate test, and must be a function of its arguments.
type HeadHook func(head []fact.ID)

// ErrBound is wrapped by the error of an evaluation that passes its
// round bound (MaxRounds) or its fact bound (EvalStrata's maxFacts).
var ErrBound = errors.New("datalog: fixpoint exceeded")

// EvalStrata evaluates the strata in order over one IndexedInstance:
// the input is indexed once, each stratum's fixpoint extends the same
// index instead of re-indexing its input, and the index's tables are
// handed over as the result, not copied. It validates nothing; Fixpoint
// and EvalStratified do.
//
// A non-nil hooks makes it the evaluator of wILOG¬ (internal/ilog): a
// rule whose head relation has a hook derives its heads through it, a
// stratum holding such a rule fails once the instance has more than
// maxFacts facts, and the trace carries ilog.round and ilog.stratum
// events in place of dl.* ones.
func EvalStrata(strata [][]Rule, hooks map[string]HeadHook, maxFacts int, input *fact.Instance, opts FixpointOptions) (*fact.Instance, error) {
	eo := newEngineObs(opts, hooks != nil)
	sp := obs.SpanCtx{}.Start("", opts.Reg.Latency(obs.DlFixpointNs))
	x := IndexInstance(input)
	for i, stratum := range strata {
		eo.beginStratum(i+1, stratum)
		if err := evalStratum(stratum, x, opts, eo, hooks, maxFacts); err != nil {
			return nil, err
		}
		eo.endStratum(x)
	}
	eo.endFixpoint(len(strata), x)
	sp.Finish()
	return x.handOver(), nil
}

// evalStratum runs the fixpoint loop for one stratum in place on x,
// assuming negated relations are static (semi-positive, or a stratum
// of a stratified program). The shared IndexedInstance is what makes
// index reuse across strata possible. Round 0 is a full pass; after it
// Naive repeats the full pass, while SemiNaive and Parallel re-evaluate
// each rule once per positive atom whose table gained rows, with that
// atom pinned to the rows the last round appended. In Parallel mode a
// round whose pinned work reaches the inline threshold fans out
// (parallel.go); the derived facts are identical either way. A hooked
// rule's head gains position 0, written by its hook (EvalStrata).
func evalStratum(rules []Rule, x *IndexedInstance, opts FixpointOptions, eo *engineObs, hooks map[string]HeadHook, maxFacts int) error {
	if opts.Mode != SemiNaive && opts.Mode != Naive && opts.Mode != Parallel {
		return fmt.Errorf("datalog: unknown evaluation mode %d", opts.Mode)
	}
	if eo != nil && opts.Mode == Parallel {
		eo.reg.Gauge(obs.DlWorkers).SetMax(int64(opts.Mode.width()))
	}
	crs := compileRules(rules)
	l := &stratumLoop{x: x, workers: opts.Mode.width(), mode: opts.Mode, eo: eo}
	for i := range crs {
		if h := hooks[rules[i].Head.Rel]; h != nil {
			crs[i].hook = h
			crs[i].head.terms = append([]cTerm{{slot: -1}}, crs[i].head.terms...)
			l.maxFacts = maxFacts
		}
	}
	full := func(w int) []ruleTask { return fullPassTasks(crs, x, w) }
	next := func(w int) []ruleTask { return deltaTasks(crs, l.delta, w) }
	if opts.Mode == Naive {
		next = full
	}
	err := l.runRound(full)
	for productive := 1; err == nil && len(l.delta) > 0; productive++ {
		if opts.MaxRounds != 0 && productive > opts.MaxRounds {
			return fmt.Errorf("%w %d rounds", ErrBound, opts.MaxRounds)
		}
		err = l.runRound(next)
	}
	return err
}
