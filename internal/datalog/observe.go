package datalog

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
)

// This file holds the engine's instrumentation plumbing. A nil
// *engineObs is the disabled state: the fixpoint loops carry one
// pointer and pay one branch per round, and the matcher pays one
// branch per atom selection (a nil *int64 check) — the overhead gated
// by scripts/check.sh. With instrumentation on, every task accumulates
// into private, non-atomic taskStats that are merged at the round
// barrier, so the parallel engine's determinism argument (workers
// never share mutable state mid-round) extends to the metrics.
//
// Determinism contract: everything emitted to the Tracer (round, stratum
// and fixpoint events) is a pure function of (program, input, mode,
// GOMAXPROCS) — repeated runs of the same configuration produce
// byte-identical streams, regardless of scheduling. The aggregate
// counts (candidates, derived, duplicates, delta) are additionally
// invariant across widths; only the task count reflects the
// chunking. Scheduling-dependent measurements — per-worker task
// counts, busy and wall times — go only to the Registry.

// taskStats accumulates one evaluation task's counters.
type taskStats struct {
	candidates int64 // join candidate facts iterated by the matcher
	derived    int64 // emitted head facts new to the frozen instance
	duplicates int64 // emitted head facts suppressed as already known
}

// ruleAgg is taskStats aggregated per rule (index within the stratum).
type ruleAgg struct{ candidates, derived, duplicates int64 }

// roundAgg aggregates one round across all its tasks.
type roundAgg struct {
	candidates, derived, duplicates int64
	perRule                         []ruleAgg
}

func (a *roundAgg) addTask(ruleIdx int, ts taskStats) {
	a.candidates += ts.candidates
	a.derived += ts.derived
	a.duplicates += ts.duplicates
	if ruleIdx >= 0 && ruleIdx < len(a.perRule) {
		ra := &a.perRule[ruleIdx]
		ra.candidates += ts.candidates
		ra.derived += ts.derived
		ra.duplicates += ts.duplicates
	}
}

func (a *roundAgg) merge(b *roundAgg) {
	a.candidates += b.candidates
	a.derived += b.derived
	a.duplicates += b.duplicates
	for i := range b.perRule {
		a.perRule[i].candidates += b.perRule[i].candidates
		a.perRule[i].derived += b.perRule[i].derived
		a.perRule[i].duplicates += b.perRule[i].duplicates
	}
}

// engineObs carries the instrumentation state of one stratified
// evaluation. All methods are no-ops on a nil receiver.
type engineObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	rounds, derivations, duplicates, candidates, deltaFacts, tasks *obs.Counter

	ilog      bool   // an ILOG run: ilog.* events replace dl.* ones
	stratum   int    // 1-based ordinal of the stratum being evaluated
	rules     []Rule // rules of the current stratum
	round     int    // next round number within the stratum
	sDerived  int64  // delta facts accumulated in this stratum
	sInvented int64  // of them, appended by hooked rules
}

// newEngineObs returns nil when both the registry and the tracer are
// absent — the disabled fast path the hot loops test for.
func newEngineObs(opts FixpointOptions, ilog bool) *engineObs {
	if opts.Reg == nil && opts.Tracer == nil {
		return nil
	}
	return &engineObs{
		ilog:        ilog,
		reg:         opts.Reg,
		tracer:      opts.Tracer,
		rounds:      opts.Reg.Counter(obs.DlRounds),
		derivations: opts.Reg.Counter(obs.DlDerivations),
		duplicates:  opts.Reg.Counter(obs.DlDuplicates),
		candidates:  opts.Reg.Counter(obs.DlCandidates),
		deltaFacts:  opts.Reg.Counter(obs.DlDeltaFacts),
		tasks:       opts.Reg.Counter(obs.DlTasks),
	}
}

func (eo *engineObs) newRoundAgg() *roundAgg {
	return &roundAgg{perRule: make([]ruleAgg, len(eo.rules))}
}

// beginStratum resets the per-stratum state.
func (eo *engineObs) beginStratum(stratum int, rules []Rule) {
	if eo == nil {
		return
	}
	eo.stratum = stratum
	eo.rules = rules
	eo.round = 0
	eo.sDerived, eo.sInvented = 0, 0
	eo.reg.Counter(obs.DlStrata).Inc()
}

// roundDone publishes one round's aggregate: counters and per-rule
// counters into the registry, one deterministic round event into the
// tracer. delta is the rows the barrier appended, invented those hooked
// rules appended and facts the instance's size after it; an ILOG run
// also counts them as ilog.* counters. workerTasks/workerBusy are
// per-worker load figures of a fanned-out round (nil for inline
// rounds); they stay in the Registry plane.
func (eo *engineObs) roundDone(mode EvalMode, ntasks int, agg *roundAgg, delta, invented, facts int, workerTasks, workerBusy []int64) {
	if eo == nil {
		return
	}
	round := eo.round
	eo.round++
	eo.sDerived += int64(delta)
	eo.sInvented += int64(invented)
	if eo.ilog {
		eo.reg.Counter(obs.IlogRounds).Inc()
		eo.reg.Counter(obs.IlogDerivations).Add(int64(delta))
		eo.reg.Counter(obs.IlogInvented).Add(int64(invented))
	}
	eo.rounds.Inc()
	eo.tasks.Add(int64(ntasks))
	eo.derivations.Add(agg.derived)
	eo.duplicates.Add(agg.duplicates)
	eo.candidates.Add(agg.candidates)
	eo.deltaFacts.Add(int64(delta))
	if eo.reg != nil {
		for i, ra := range agg.perRule {
			if ra == (ruleAgg{}) {
				continue
			}
			base := fmt.Sprintf("%ss%d.r%d.%s.", obs.DlRulePrefix, eo.stratum, i, eo.rules[i].Head.Rel)
			eo.reg.Counter(base + "derivations").Add(ra.derived)
			eo.reg.Counter(base + "duplicates").Add(ra.duplicates)
			eo.reg.Counter(base + "candidates").Add(ra.candidates)
		}
		for w := range workerTasks {
			eo.reg.Counter(obs.DlWorkerTasksPrefix + strconv.Itoa(w)).Add(workerTasks[w])
			eo.reg.Latency(obs.DlWorkerBusyNs).Observe(workerBusy[w])
		}
	}
	switch {
	case eo.tracer == nil:
	case eo.ilog:
		eo.tracer.Emit(obs.EvIlogRound,
			obs.F("stratum", eo.stratum),
			obs.F("round", round),
			obs.F("derived", delta),
			obs.F("invented", invented),
			obs.F("facts", facts))
	default:
		eo.tracer.Emit(obs.EvDlRound,
			obs.F("stratum", eo.stratum),
			obs.F("round", round),
			obs.F("mode", mode.String()),
			obs.F("tasks", ntasks),
			obs.F("candidates", agg.candidates),
			obs.F("derived", agg.derived),
			obs.F("duplicates", agg.duplicates),
			obs.F("delta", delta))
	}
}

// endStratum emits the stratum summary event.
func (eo *engineObs) endStratum(x *IndexedInstance) {
	if eo == nil {
		return
	}
	switch {
	case eo.tracer == nil:
	case eo.ilog:
		eo.tracer.Emit(obs.EvIlogStratum,
			obs.F("stratum", eo.stratum),
			obs.F("rounds", eo.round),
			obs.F("derived", eo.sDerived),
			obs.F("invented", eo.sInvented))
	default:
		eo.tracer.Emit(obs.EvDlStratum,
			obs.F("stratum", eo.stratum),
			obs.F("rules", len(eo.rules)),
			obs.F("rounds", eo.round),
			obs.F("derived", eo.sDerived),
			obs.F("facts", x.Len()))
	}
}

// endFixpoint emits the evaluation summary event.
func (eo *engineObs) endFixpoint(strata int, x *IndexedInstance) {
	if eo == nil {
		return
	}
	if eo.tracer != nil && !eo.ilog {
		eo.tracer.Emit(obs.EvDlFixpoint,
			obs.F("strata", strata),
			obs.F("facts", x.Len()))
	}
}
