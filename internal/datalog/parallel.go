package datalog

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/fact"
	"repro/internal/obs"
)

// This file holds a fixpoint round — its tasks, its barrier — and is
// the one place evaluation fans out: a round in Parallel mode. A
// round's (rule, pinned-atom, row-chunk) join tasks go to up to
// GOMAXPROCS goroutines that read the shared IndexedInstance (frozen
// for the round) and buffer the heads it lacks privately, one buffer a
// task. The barrier, on one goroutine, appends the buffers to the row
// tables in task order, and the rows each table gained are the next
// round's delta. Rule evaluation is a pure function of (rule, index,
// instance, chunk), so the rows are independent of scheduling:
// Parallel derives what SemiNaive derives, round by round, and its row
// order is a function of (program, input, GOMAXPROCS).
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

// ruleTask is one unit of round work: evaluate the compiled rule with
// the positive atom at index pin ranging over pinned, a range of its
// table's rows (pin = -1 means a full evaluation, used by body-less
// rules and single-worker passes). ruleIdx is the rule's index within
// its stratum, keying per-rule instrumentation.
type ruleTask struct {
	cr      *cRule
	ruleIdx int
	pin     int
	pinned  cands
}

// chunkTarget is how many chunks each pinned row range is split into
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

// pinChunks appends t once per chunk of rows [lo, hi) of tab, its
// pinned atom ranging over the chunk: one chunk for one worker, else at
// most workers*chunkTarget contiguous chunks of near-equal size.
func pinChunks(tasks []ruleTask, t ruleTask, tab *relTable, lo, hi, workers int) []ruleTask {
	if hi <= lo {
		return tasks
	}
	n := 1
	if workers > 1 {
		n = min(workers*chunkTarget, hi-lo)
	}
	size := (hi - lo + n - 1) / n
	for start := lo; start < hi; start += size {
		t.pinned = cands{t: tab, lo: start, n: min(size, hi-start)}
		tasks = append(tasks, t)
	}
	return tasks
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
// that atom's table; rules with empty positive bodies evaluate as a
// single unpinned task.
func fullPassTasks(crs []cRule, x *IndexedInstance, workers int) []ruleTask {
	tasks := make([]ruleTask, 0, len(crs))
	for i := range crs {
		cr := &crs[i]
		if workers <= 1 || len(cr.pos) == 0 {
			tasks = append(tasks, ruleTask{cr: cr, ruleIdx: i, pin: -1})
			continue
		}
		if tab := x.idx.table(cr.pos[0].rel, len(cr.pos[0].terms)); tab != nil {
			tasks = pinChunks(tasks, ruleTask{cr: cr, ruleIdx: i, pin: 0}, tab, 0, len(tab.stamps), workers)
		}
	}
	return tasks
}

// span is the rows [lo, hi) a round's barrier appended to t, the table
// of rel: that table's share of the next round's delta.
type span struct {
	rel    fact.ID
	t      *relTable
	lo, hi int
}

// deltaTasks builds a semi-naive round's tasks: for every rule and
// every positive atom whose table gained rows last round, the atom is
// pinned to those rows (chunked across the workers when parallel).
func deltaTasks(crs []cRule, delta []span, workers int) []ruleTask {
	var tasks []ruleTask
	for i := range crs {
		cr := &crs[i]
		for k, a := range cr.pos {
			for _, s := range delta {
				if s.rel == a.rel && s.t.arity == len(a.terms) {
					tasks = pinChunks(tasks, ruleTask{cr: cr, ruleIdx: i, pin: k}, s.t, s.lo, s.hi, workers)
				}
			}
		}
	}
	return tasks
}

// deriveTask evaluates one task against the frozen x and appends every
// head x lacks to buf, row-major, returning the buffer. agg, when
// non-nil, receives the task's counters: "derived" and "duplicates" are
// judged against x only, so the counts are the same whichever goroutine
// ran the task.
func deriveTask(t ruleTask, x *IndexedInstance, buf []fact.ID, agg *roundAgg) ([]fact.ID, error) {
	var ts *taskStats
	var scanned *int64
	if agg != nil {
		ts = new(taskStats)
		scanned = &ts.candidates
	}
	err := evalRuleC(t.cr, x, t.pin, t.pinned, scanned, func(rel fact.ID, args []fact.ID) error {
		switch {
		case !x.hasIDs(rel, args):
			buf = append(buf, args...)
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
	return buf, err
}

// pinnedWork estimates a round's join fan-out as the total number of
// pinned rows across its tasks (an unpinned task counts 1): the
// measure compared against inlineBelow.
func pinnedWork(tasks []ruleTask) int {
	work := 0
	for i := range tasks {
		if tasks[i].pin >= 0 {
			work += tasks[i].pinned.n
		} else {
			work++
		}
	}
	return work
}

// stratumLoop is what one stratum's fixpoint loop keeps between
// rounds: the head buffer of each task, so that a round appends into
// the capacity earlier ones grew, and the spans the last barrier
// appended.
type stratumLoop struct {
	x       *IndexedInstance
	workers int
	mode    EvalMode
	eo      *engineObs
	bufs    [][]fact.ID
	delta   []span
}

// runRound evaluates one round against the frozen x and appends the
// heads it derived to x, leaving the rows each table gained in l.delta.
// build yields the round's tasks chunked for a number of workers. With
// one worker the tasks run inline on the coordinator, and so does a
// chunked round whose pinned work is below inlineBelow — rebuilt
// unchunked, one task per rule and pinned atom, since fragments of a
// tiny delta only multiply matcher setup. Otherwise the tasks are
// distributed over workers goroutines.
//
// Every task buffers its new heads privately, and the barrier appends
// the buffers in task order, so the rows a round appends — and their
// order — do not depend on which goroutine ran which task.
// Instrumentation (eo non-nil) accumulates per-task stats into
// worker-private roundAggs merged at the barrier; "derived" and
// "duplicates" are judged against the frozen x only, so the counts —
// and the emitted round event — are identical inline and fanned out.
func (l *stratumLoop) runRound(build func(workers int) []ruleTask) error {
	workers, tasks := l.workers, build(l.workers)
	if workers > 1 && len(tasks) > 1 && pinnedWork(tasks) < inlineBelow {
		workers, tasks = 1, build(1)
	}
	if len(tasks) <= 1 {
		workers = 1
	}
	eo := l.eo
	var round obs.ActiveSpan
	var aggs []*roundAgg
	var wTasks, wBusy []int64 // per-worker load of a fanned-out round
	if eo != nil {
		round = obs.SpanCtx{}.Start("", eo.reg.Latency(obs.DlRoundNs))
		aggs = make([]*roundAgg, workers)
		if workers > 1 {
			wTasks, wBusy = make([]int64, workers), make([]int64, workers)
		}
	}
	for len(l.bufs) < len(tasks) {
		l.bufs = append(l.bufs, nil)
	}
	if err := parallelEach(workers, len(tasks), func(w, i int) error {
		var agg *roundAgg
		if eo != nil {
			if aggs[w] == nil {
				aggs[w] = eo.newRoundAgg()
			}
			agg = aggs[w]
		}
		var start time.Time
		if wTasks != nil {
			start = time.Now()
		}
		var err error
		l.bufs[i], err = deriveTask(tasks[i], l.x, l.bufs[i][:0], agg)
		if wTasks != nil {
			wTasks[w]++
			wBusy[w] += time.Since(start).Nanoseconds()
		}
		return err
	}); err != nil {
		return err
	}
	appended := l.barrier(tasks)
	if eo != nil {
		agg := eo.newRoundAgg()
		for _, a := range aggs {
			if a != nil {
				agg.merge(a)
			}
		}
		eo.roundDone(l.mode, len(tasks), agg, appended, wTasks, wBusy)
		round.Finish()
	}
	return nil
}

// barrier appends the heads the round's tasks buffered to x in task
// order, a duplicate among them one byKey probe each, sets l.delta to
// the rows each table gained and returns how many rows that is.
func (l *stratumLoop) barrier(tasks []ruleTask) int {
	l.delta = l.delta[:0]
	appended := 0
	for i, t := range tasks {
		buf, head := l.bufs[i], t.cr.head
		if len(buf) == 0 {
			continue
		}
		tab := l.x.idx.tableFor(head.rel, len(head.terms))
		j := slices.IndexFunc(l.delta, func(s span) bool { return s.t == tab })
		if j < 0 {
			j = len(l.delta)
			l.delta = append(l.delta, span{rel: head.rel, t: tab, lo: len(tab.stamps), hi: len(tab.stamps)})
		}
		for k := 0; k < len(buf); k += tab.arity {
			l.x.addIDs(tab, buf[k:k+tab.arity])
		}
		appended += len(tab.stamps) - l.delta[j].hi
		l.delta[j].hi = len(tab.stamps)
	}
	l.delta = slices.DeleteFunc(l.delta, func(s span) bool { return s.hi == s.lo })
	return appended
}
