package datalog

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/fact"
	"repro/internal/obs"
)

// This file is the one place evaluation fans out: a round of the
// semi-naive fixpoint in Parallel mode. A round's (rule, pinned-atom,
// fact-chunk) join tasks go to up to GOMAXPROCS goroutines that read
// the shared IndexedInstance (frozen for the round) and derive into
// private buffers, merged into the next delta at the round barrier on
// one goroutine. Rule evaluation is a pure function of (rule, index,
// instance, chunk) and derived facts carry set semantics, so the
// result is independent of scheduling: Parallel is deterministic and
// agrees with SemiNaive exactly.
//
// A round with a barrier is the superstep of Interlandi & Tanca ("A
// Datalog-based Computational Model for Coordination-free,
// Data-Parallel Systems"): semi-naive deltas partition freely across
// evaluators as long as every evaluator sees the full instance for the
// non-pinned atoms. Nothing else in the engine is data-parallel in that
// sense — incr's cone is a couple of facts a write, ilog's rounds are
// bounded by invention — so nothing else starts a goroutine, and
// neither the width nor the threshold is an option;
// TestParallelWorkSpan gates the work/span bound that keeps the mode.

// ruleTask is one unit of parallel work: evaluate the compiled rule
// with the positive atom at index pin ranging over pinFacts (pin = -1
// means a full evaluation, used by body-less rules and single-worker
// passes). ruleIdx is the rule's index within its stratum, keying
// per-rule instrumentation.
type ruleTask struct {
	cr       *cRule
	ruleIdx  int
	pin      int
	pinFacts []fact.Fact
}

// chunkTarget is how many chunks each pinned fact list is split into
// per worker — small enough to amortize task overhead, large enough to
// balance skewed rules across the workers.
const chunkTarget = 4

// inlineBelow is the pinned-work threshold below which a Parallel round
// runs inline on the coordinator: distributing a dozen pinned facts
// costs more than joining them, and goroutines are spawned per
// fanned-out round. Chain-shaped fixpoints (many rounds of tiny deltas)
// run almost entirely inline, grid- and random-shaped ones (few rounds
// of wide deltas) fan out. It changes scheduling only, never results or
// the aggregate counts of the event stream.
const inlineBelow = 256

// width is how many goroutines a round of the mode may use: GOMAXPROCS
// in Parallel mode, one otherwise.
func (m EvalMode) width() int {
	if m != Parallel {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// chunkFacts splits facts into at most workers*chunkTarget contiguous
// chunks of near-equal size — the pin lists of the tasks one rule's
// enumeration is partitioned into.
func chunkFacts(facts []fact.Fact, workers int) [][]fact.Fact {
	if len(facts) == 0 {
		return nil
	}
	n := min(workers*chunkTarget, len(facts))
	size := (len(facts) + n - 1) / n
	chunks := make([][]fact.Fact, 0, n)
	for start := 0; start < len(facts); start += size {
		chunks = append(chunks, facts[start:min(start+size, len(facts))])
	}
	return chunks
}

// parallelEach calls fn(w, i) for every i in [0, n) on up to workers
// goroutines and returns once all have finished. w identifies the
// calling goroutine (0 <= w < max(workers, 1)), so callers can fold
// into per-w accumulators without locking; with workers <= 1 or n < 2
// everything runs on the caller's goroutine as w = 0. A goroutine stops
// calling fn after its first error; the error of the lowest such w is
// returned. runRound is its one caller.
func parallelEach(workers, n int, fn func(w, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, workers)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[w] == nil {
					errs[w] = fn(w, i)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fullPassTasks builds the opening-round tasks: every rule evaluated
// against the full instance. With workers > 1 each rule with a
// positive body is partitioned by pinning its first atom to chunks of
// that atom's relation; rules with empty positive bodies evaluate as a
// single unpinned task.
func fullPassTasks(crs []cRule, x *IndexedInstance, workers int) []ruleTask {
	tasks := make([]ruleTask, 0, len(crs))
	for i := range crs {
		cr := &crs[i]
		if workers <= 1 || len(cr.pos) == 0 {
			tasks = append(tasks, ruleTask{cr: cr, ruleIdx: i, pin: -1})
			continue
		}
		for _, chunk := range chunkFacts(x.RelList(cr.src.Pos[0].Rel), workers) {
			tasks = append(tasks, ruleTask{cr: cr, ruleIdx: i, pin: 0, pinFacts: chunk})
		}
	}
	return tasks
}

// deltaTasks builds a semi-naive round's tasks: for every rule and
// every positive atom whose relation gained facts last round, the atom
// is pinned to the delta (chunked across the workers when parallel).
func deltaTasks(crs []cRule, deltaByRel map[fact.ID][]fact.Fact, workers int) []ruleTask {
	var tasks []ruleTask
	for i := range crs {
		cr := &crs[i]
		for k := range cr.pos {
			dfacts := deltaByRel[cr.pos[k].rel]
			if len(dfacts) == 0 {
				continue
			}
			if workers <= 1 {
				tasks = append(tasks, ruleTask{cr: cr, ruleIdx: i, pin: k, pinFacts: dfacts})
				continue
			}
			for _, chunk := range chunkFacts(dfacts, workers) {
				tasks = append(tasks, ruleTask{cr: cr, ruleIdx: i, pin: k, pinFacts: chunk})
			}
		}
	}
	return tasks
}

// deriveTask evaluates one task against the frozen x and adds every
// head x lacks to buf. agg, when non-nil, receives the task's counters:
// "derived" and "duplicates" are judged against x only, so the counts
// are the same whichever goroutine ran the task.
func deriveTask(t ruleTask, x *IndexedInstance, buf *fact.Instance, agg *roundAgg) error {
	var ts *taskStats
	var scanned *int64
	if agg != nil {
		ts = new(taskStats)
		scanned = &ts.candidates
	}
	err := evalRuleC(t.cr, x, t.pin, t.pinFacts, scanned, func(rel fact.ID, args []fact.ID) error {
		switch {
		case !x.hasIDs(rel, args):
			buf.AddIDs(rel, args)
			if ts != nil {
				ts.derived++
			}
		case ts != nil:
			ts.duplicates++
		}
		return nil
	})
	if agg != nil {
		agg.addTask(t.ruleIdx, *ts)
	}
	return err
}

// pinnedWork estimates a round's join fan-out as the total number of
// pinned facts across its tasks (an unpinned task counts 1): the
// measure compared against inlineBelow.
func pinnedWork(tasks []ruleTask) int {
	work := 0
	for i := range tasks {
		if n := len(tasks[i].pinFacts); n > 0 {
			work += n
		} else {
			work++
		}
	}
	return work
}

// runRound evaluates one round against the frozen x and returns the
// newly derived facts (those not already in x). build yields the
// round's tasks chunked for a number of workers. With one worker the
// tasks run inline on the coordinator, and so does a chunked round
// whose pinned work is below inlineBelow — rebuilt unchunked, one task
// per rule and pinned atom, since fragments of a tiny delta only
// multiply matcher setup. Otherwise the tasks are distributed over
// workers goroutines and the per-worker buffers merged at the barrier.
//
// Instrumentation (eo non-nil) accumulates per-task stats into
// worker-private roundAggs merged at the barrier; "derived" and
// "duplicates" are judged against the frozen x only, so the counts —
// and the emitted round event — are identical inline and fanned out.
func runRound(build func(workers int) []ruleTask, x *IndexedInstance, workers int, mode EvalMode, eo *engineObs) (*fact.Instance, error) {
	tasks := build(workers)
	if workers > 1 && len(tasks) > 1 && pinnedWork(tasks) < inlineBelow {
		workers, tasks = 1, build(1)
	}
	var stopRound func()
	if eo != nil {
		stopRound = eo.reg.Span(obs.DlRoundNs)
	}
	derived := fact.NewInstance()
	if workers <= 1 || len(tasks) <= 1 {
		var agg *roundAgg
		if eo != nil {
			agg = eo.newRoundAgg()
		}
		for _, t := range tasks {
			if err := deriveTask(t, x, derived, agg); err != nil {
				return nil, err
			}
		}
		if eo != nil {
			eo.roundDone(mode, len(tasks), agg, derived, nil, nil)
			stopRound()
		}
		return derived, nil
	}

	bufs := make([]*fact.Instance, workers)
	var aggs []*roundAgg
	var wTasks, wBusy []int64
	if eo != nil {
		aggs = make([]*roundAgg, workers)
		wTasks = make([]int64, workers)
		wBusy = make([]int64, workers)
	}
	if err := parallelEach(workers, len(tasks), func(w, i int) error {
		if bufs[w] == nil {
			bufs[w] = fact.NewInstance()
		}
		if eo == nil {
			return deriveTask(tasks[i], x, bufs[w], nil)
		}
		if aggs[w] == nil {
			aggs[w] = eo.newRoundAgg()
		}
		start := time.Now()
		err := deriveTask(tasks[i], x, bufs[w], aggs[w])
		wTasks[w]++
		wBusy[w] += time.Since(start).Nanoseconds()
		return err
	}); err != nil {
		return nil, err
	}
	for _, buf := range bufs {
		if buf != nil {
			derived.AddAll(buf)
		}
	}
	if eo != nil {
		agg := eo.newRoundAgg()
		for _, a := range aggs {
			if a != nil {
				agg.merge(a)
			}
		}
		eo.roundDone(mode, len(tasks), agg, derived, wTasks, wBusy)
		stopRound()
	}
	return derived, nil
}
