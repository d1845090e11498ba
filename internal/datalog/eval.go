package datalog

import (
	"fmt"
	"runtime"

	"repro/internal/fact"
	"repro/internal/obs"
)

// This file implements the semantics of semi-positive Datalog¬
// programs (Section 2): the immediate consequence operator TP and its
// minimal fixpoint, with three interchangeable evaluation strategies —
// naive (recompute all rules each round; the correctness oracle),
// semi-naive (each round only joins that touch at least one
// newly-derived fact; the default), and parallel (semi-naive with the
// per-round joins fanned across a worker pool; see parallel.go).
// Stratified programs are evaluated stratum by stratum in stratify.go.
//
// All loops evaluate compiled rules (compile.go): joins bind interned
// IDs into slot environments and derived heads are deduplicated
// against packed ID tuples, so the per-candidate and per-duplicate
// hot path performs no string work and no allocation.

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
	// join tasks fanned across a worker pool. Workers derive into
	// private buffers that are merged at the round barrier, so the
	// result is identical to SemiNaive. Rounds whose pinned work is
	// below the inline threshold run on the coordinator instead (see
	// FixpointOptions.InlineBelow).
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
	// merely confirms the fixpoint is free. 0 means unbounded.
	// Datalog¬ fixpoints always terminate on finite inputs, so the
	// bound exists only for defensive use. All modes enforce the bound
	// identically: a program whose fixpoint needs k productive rounds
	// succeeds iff MaxRounds == 0 or MaxRounds >= k.
	MaxRounds int
	// Workers sets the worker-pool size for Parallel mode; 0 means
	// GOMAXPROCS. Ignored by the other modes.
	Workers int
	// InlineBelow is the Parallel-mode adaptive threshold: a round
	// whose total pinned work (sum of pinned-fact list lengths across
	// its tasks) is below it runs inline on the coordinator, skipping
	// the pool barrier — small deltas cost more to distribute than to
	// evaluate. 0 means the built-in default; negative disables
	// inlining (every multi-task round uses the pool). The threshold
	// changes scheduling only, never results or the event stream.
	InlineBelow int
	// Reg, when non-nil, receives engine metrics (counters, per-rule
	// work, worker utilization, wall-clock spans). See internal/obs
	// names.go for the dl.* vocabulary.
	Reg *obs.Registry
	// Sink, when non-nil, receives the deterministic structured event
	// stream (dl.round / dl.stratum / dl.fixpoint): a pure function of
	// (program, input, mode, workers), byte-identical across repeated
	// runs regardless of scheduling. Leaving both nil keeps the
	// disabled fast path.
	Sink *obs.Sink
}

func (o FixpointOptions) workers() int {
	if o.Mode != Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// defaultInlineBelow is the pinned-work threshold below which a
// parallel round runs inline. Tuned on the BenchmarkParallelTC
// topologies: chain-shaped fixpoints (many rounds of tiny deltas) run
// almost entirely inline, grid- and random-shaped ones (few rounds of
// wide deltas) still fan out.
const defaultInlineBelow = 256

func (o FixpointOptions) inlineBelow() int {
	if o.InlineBelow == 0 {
		return defaultInlineBelow
	}
	if o.InlineBelow < 0 {
		return 0
	}
	return o.InlineBelow
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
	if !p.IsSemiPositive() {
		return nil, fmt.Errorf("datalog: Fixpoint requires a semi-positive program; use EvalStratified")
	}
	return evalStrata([][]Rule{p.Rules}, input, opts)
}

// evalStrata evaluates the strata in order over one IndexedInstance: the
// input is indexed once, each stratum's fixpoint extends the same index
// instead of re-indexing its input, and the result is materialized once.
func evalStrata(strata [][]Rule, input *fact.Instance, opts FixpointOptions) (*fact.Instance, error) {
	eo := newEngineObs(opts)
	stop := opts.Reg.Span(obs.DlFixpointNs)
	x := IndexInstance(input)
	for i, stratum := range strata {
		eo.beginStratum(i+1, stratum)
		if err := evalStratum(stratum, x, opts, eo); err != nil {
			return nil, err
		}
		eo.endStratum(x)
	}
	eo.endFixpoint(len(strata), x)
	stop()
	return x.Instance(), nil
}

// evalStratum runs the fixpoint loop for one stratum in place on x,
// assuming negated relations are static (semi-positive, or a stratum
// of a stratified program). The shared IndexedInstance is what makes
// index reuse across strata possible.
func evalStratum(rules []Rule, x *IndexedInstance, opts FixpointOptions, eo *engineObs) error {
	if eo != nil && opts.Mode == Parallel {
		eo.reg.Gauge(obs.DlWorkers).SetMax(int64(opts.workers()))
	}
	switch opts.Mode {
	case Naive:
		return naiveLoop(rules, x, opts.MaxRounds, eo)
	case SemiNaive, Parallel:
		return semiNaiveLoop(rules, x, opts, eo)
	default:
		return fmt.Errorf("datalog: unknown evaluation mode %d", opts.Mode)
	}
}

func errMaxRounds(maxRounds int) error {
	return fmt.Errorf("datalog: fixpoint exceeded %d rounds", maxRounds)
}

func naiveLoop(rules []Rule, x *IndexedInstance, maxRounds int, eo *engineObs) error {
	crs := compileRules(rules)
	productive := 0
	for {
		derived := fact.NewInstance()
		var agg *roundAgg
		if eo != nil {
			agg = eo.newRoundAgg()
		}
		for i := range crs {
			if err := deriveTask(ruleTask{cr: &crs[i], ruleIdx: i, pin: -1}, x, derived, agg); err != nil {
				return err
			}
		}
		eo.roundDone(Naive, len(crs), agg, derived, nil, nil)
		if derived.Empty() {
			return nil
		}
		productive++
		if maxRounds > 0 && productive > maxRounds {
			return errMaxRounds(maxRounds)
		}
		for _, h := range derived.Facts() {
			x.addNew(h)
		}
	}
}

// semiNaiveLoop is the delta-driven fixpoint: round 0 is a full pass;
// afterwards each rule is re-evaluated once per positive atom whose
// relation gained facts, with that atom pinned to the delta. In
// Parallel mode every round's tasks run on a persistent worker pool
// (parallel.go) unless the round's pinned work falls below the inline
// threshold; the derived facts are identical either way.
func semiNaiveLoop(rules []Rule, x *IndexedInstance, opts FixpointOptions, eo *engineObs) error {
	crs := compileRules(rules)
	workers := opts.workers()
	maxRounds := opts.MaxRounds
	var p *workerPool
	if opts.Mode == Parallel && workers > 1 {
		p = newWorkerPool(workers, opts.inlineBelow())
		defer p.close()
	}
	// Rounds below the inline threshold run on the coordinator, where
	// chunking a tiny delta into per-worker fragments only multiplies
	// matcher setup: when the chunked task list would run inline
	// anyway, rebuild it unchunked (one task per rule and pinned atom).
	// The threshold test matches the one runRound applies — pinned work
	// is the same sum either way — so the decision is deterministic.
	tasks := fullPassTasks(crs, x, workers)
	if p != nil && len(tasks) > 1 && pinnedWork(tasks) < p.inlineBelow {
		tasks = fullPassTasks(crs, x, 1)
	}
	delta, err := runRound(tasks, x, p, opts.Mode, eo)
	if err != nil {
		return err
	}
	productive := 0
	for !delta.Empty() {
		productive++
		if maxRounds > 0 && productive > maxRounds {
			return errMaxRounds(maxRounds)
		}
		deltaByRel := make(map[fact.ID][]fact.Fact)
		for _, h := range delta.Facts() {
			x.addNew(h)
			deltaByRel[h.RelID()] = append(deltaByRel[h.RelID()], h)
		}
		tasks := deltaTasks(crs, deltaByRel, workers)
		if p != nil && len(tasks) > 1 && pinnedWork(tasks) < p.inlineBelow {
			tasks = deltaTasks(crs, deltaByRel, 1)
		}
		delta, err = runRound(tasks, x, p, opts.Mode, eo)
		if err != nil {
			return err
		}
	}
	return nil
}
