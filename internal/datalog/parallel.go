package datalog

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fact"
	"repro/internal/fanout"
	"repro/internal/obs"
)

// This file holds a fixpoint round — its tasks, its barrier — and is
// the one place evaluation fans out: a round in Parallel mode. A head
// enters its row table in two steps (index.go): reserve keys it and
// stores its arguments, publish commits it, and joins read committed
// rows only. A round on one goroutine — every Naive and SemiNaive round,
// and a Parallel one below inlineBelow — reserves each head as its task
// derives it, so the task's membership probe is the insert, and the
// round's own rows stay out of its joins. A fanned-out round's
// (rule, pinned-atom, row-chunk) join tasks are played on the engine's
// one worker set (fanout.InOrder): they read the shared IndexedInstance
// (frozen for the round) and buffer the heads it lacks privately, one
// buffer a task; the barrier, on one goroutine, reserves the buffers in
// task order.
// Either way the barrier then publishes the reserved rows, table by
// table, and the rows each table gained are the next round's delta.
// Rule evaluation is a pure function of (rule, index, instance, chunk),
// so the rows are independent of scheduling: Parallel derives what
// SemiNaive derives, round by round, and its row order is a function of
// (program, input, GOMAXPROCS).
//
// A round with a barrier is the superstep of Interlandi & Tanca ("A
// Datalog-based Computational Model for Coordination-free,
// Data-Parallel Systems"): semi-naive deltas partition freely across
// evaluators as long as every evaluator sees the full instance for the
// non-pinned atoms. Nothing else in the engine is data-parallel in that
// sense — incr's cone is a couple of facts a write, and ILOG's rounds
// are these rounds (EvalStrata) — so nothing else fans out, and
// neither the width nor the threshold is an option;
// TestParallelWorkSpan gates the work/span bound that keeps the mode.

// ruleTask is one unit of round work: evaluate the compiled rule with
// the positive atom at index pin ranging over pinned, a chunk of its
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
// costs more than joining them. Chain-shaped fixpoints (many rounds of
// tiny deltas) run almost entirely inline, grid- and random-shaped ones
// (few rounds of wide deltas) fan out. It changes scheduling only, never results or
// the aggregate counts of the event stream.
const inlineBelow = 256

// width is how many workers a round of the mode is chunked for:
// GOMAXPROCS in Parallel mode, one otherwise.
func (m EvalMode) width() int {
	if m != Parallel {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// pinChunks appends t once per chunk of rows [lo, hi) of tab, its
// pinned atom ranging over the chunk's arguments: one chunk for one
// worker, else at most workers*chunkTarget contiguous chunks of
// near-equal size. A batch table has no stamps, so every row is read.
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
		end := min(start+size, hi)
		t.pinned = cands{rows: tab.args[start*tab.arity : end*tab.arity], n: end - start}
		tasks = append(tasks, t)
	}
	return tasks
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
			tasks = pinChunks(tasks, ruleTask{cr: cr, ruleIdx: i, pin: 0}, tab, 0, tab.rows, workers)
		}
	}
	return tasks
}

// span is the rows [lo, hi) a round's barrier appended to t: that
// table's share of the next round's delta.
type span struct {
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
				if s.t.rel == a.rel && s.t.arity == len(a.terms) {
					tasks = pinChunks(tasks, ruleTask{cr: cr, ruleIdx: i, pin: k}, s.t, s.lo, s.hi, workers)
				}
			}
		}
	}
	return tasks
}

// deriveTask evaluates one task against x, whose joins read committed
// rows only. With buf nil the task runs on the coordinator, and each
// head goes straight into its table's reserve: the probe is the insert,
// and the row stays pending, out of the round's joins, until the
// barrier publishes it. A task of a fanned-out round may not write x,
// so it gets a buf: it probes the frozen head table and buffers each
// head the table lacks, for the barrier to reserve. ts, when non-nil, is
// set to the task's counters: a head no committed row holds — a fresh or
// a pending one — is "derived", any other a "duplicate", so the counts
// are the same whichever goroutine ran the task.
func deriveTask(t ruleTask, x *IndexedInstance, buf *headBuf, ts *taskStats) error {
	var scanned *int64
	if ts != nil {
		*ts = taskStats{}
		scanned = &ts.candidates
	}
	head := t.cr.head
	ht, at := x.idx.table(head.rel, len(head.terms)), x.version()
	return evalRuleC(t.cr, x, t.pin, t.pinned, scanned, func(_ fact.ID, args []fact.ID) error {
		var known bool
		switch {
		case buf != nil:
			if known = ht != nil && ht.has(args, at); !known {
				buf.args = append(buf.args, args...)
				buf.n++
			}
		case ht == nil:
			ht = x.idx.tableFor(head.rel, len(args))
			ht.reserve(args)
		default:
			id, added := ht.reserve(args)
			known = !added && ht.sees(id, at)
		}
		if ts != nil {
			if known {
				ts.duplicates++
			} else {
				ts.derived++
			}
		}
		return nil
	})
}

// headBuf is what a task of a fanned-out round hands its barrier: the
// heads it derived that the frozen head table lacks, row-major, and how
// many there are (a head of arity 0 has no arguments to count by).
type headBuf struct {
	args []fact.ID
	n    int
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
// rounds: the head buffer of each task of a fanned-out round, so that a
// round appends into the capacity earlier ones grew, and the spans the
// last barrier published.
type stratumLoop struct {
	x        *IndexedInstance
	workers  int
	mode     EvalMode
	eo       *engineObs
	bufs     []headBuf
	delta    []span
	maxFacts int // a bound on x.Len() after each round; 0 for none
}

// runRound evaluates one round against x as it stood at the round's
// start and adds the heads it derived to x, leaving the rows each table
// gained in l.delta. build yields the round's tasks chunked for a
// number of workers. With one worker the tasks run inline, a plain
// loop on the coordinator, and so does a chunked round whose pinned
// work is below inlineBelow — rebuilt unchunked, one task per rule and
// pinned atom, since fragments of a tiny delta only multiply matcher
// setup. Otherwise the round fans out (fanOut).
//
// An inline task reserves its new heads in their tables as it derives
// them; a fanned-out one buffers them privately, and the barrier
// reserves the buffers in task order. Either way the rows a round
// appends, and their order, are the first derivations in task order,
// whichever goroutine ran which task, and the barrier publishes them.
// Instrumentation (eo non-nil) adds each task's counters into the
// round's one roundAgg in task order; "derived" and "duplicates" are
// judged against the rows committed before the round, so the counts —
// and the emitted round event — are identical inline and fanned out.
func (l *stratumLoop) runRound(build func(workers int) []ruleTask) error {
	workers, tasks := l.workers, build(l.workers)
	if workers > 1 && len(tasks) > 1 && pinnedWork(tasks) < inlineBelow {
		workers, tasks = 1, build(1)
	}
	fanned := workers > 1 && len(tasks) > 1
	eo := l.eo
	var round obs.ActiveSpan
	var agg *roundAgg
	var ts *taskStats // an inline task's counters
	if eo != nil {
		round = obs.SpanCtx{}.Start("", eo.reg.Latency(obs.DlRoundNs))
		agg = &roundAgg{perRule: make([]taskStats, len(eo.rules))}
		ts = new(taskStats)
	}
	if fanned {
		if err := l.fanOut(tasks, agg); err != nil {
			return err
		}
	} else {
		for _, t := range tasks {
			if err := deriveTask(t, l.x, nil, ts); err != nil {
				return err
			}
			if agg != nil {
				agg.addTask(t.ruleIdx, *ts)
			}
		}
	}
	appended, invented := l.barrier(tasks, fanned)
	if eo != nil {
		eo.roundDone(l.mode, len(tasks), agg, appended, invented, l.x.Len())
		round.Finish()
	}
	if l.maxFacts > 0 && l.x.Len() > l.maxFacts {
		return fmt.Errorf("%w %d facts", ErrBound, l.maxFacts)
	}
	return nil
}

// taskDone is what a task of a fanned-out round hands its fold, besides
// its heads in l.bufs: its counters and busy time, when instrumented,
// and its error.
type taskDone struct {
	ts   taskStats
	busy int64 // nanoseconds
	err  error
}

// fanOut plays a round's tasks on the engine's worker set, task k
// buffering its heads in l.bufs[k], and folds them in task order: each
// task's counters go into agg (when non-nil) and its busy time into
// dl.worker_busy_ns. It returns the error of the first failing task in
// task order, whichever goroutines ran the tasks.
func (l *stratumLoop) fanOut(tasks []ruleTask, agg *roundAgg) error {
	for len(l.bufs) < len(tasks) {
		l.bufs = append(l.bufs, headBuf{})
	}
	var busy *obs.LatencyHist
	if agg != nil {
		busy = l.eo.reg.Latency(obs.DlWorkerBusyNs)
	}
	var err error
	next := 0 // the task the fold takes next
	fanout.InOrder(len(tasks), func(k int) taskDone {
		var d taskDone
		var ts *taskStats
		var start time.Time
		if agg != nil {
			ts, start = new(taskStats), time.Now()
		}
		buf := &l.bufs[k]
		buf.args, buf.n = buf.args[:0], 0
		d.err = deriveTask(tasks[k], l.x, buf, ts)
		if agg != nil {
			d.ts, d.busy = *ts, time.Since(start).Nanoseconds()
		}
		return d
	}, func(d taskDone) bool {
		t := tasks[next]
		next++
		if d.err != nil {
			err = d.err
			return true
		}
		if agg != nil {
			agg.addTask(t.ruleIdx, d.ts)
			busy.Observe(d.busy)
		}
		return false
	})
	return err
}

// barrier ends a round. A fanned-out round's buffers are reserved
// first, in task order, a head another task buffered one byKey probe
// that finds it. Then each head table publishes the rows the round
// reserved in it: barrier sets l.delta to them and returns how many
// that is, and how many of them hooked rules appended. A hook is keyed
// by head relation, so a table's rows are all invented or none are.
func (l *stratumLoop) barrier(tasks []ruleTask, fanned bool) (appended, invented int) {
	for i := 0; fanned && i < len(tasks); i++ {
		if b, head := l.bufs[i], tasks[i].cr.head; b.n > 0 {
			tab := l.x.idx.tableFor(head.rel, len(head.terms))
			for k := range b.n {
				tab.reserve(b.args[k*tab.arity : (k+1)*tab.arity])
			}
		}
	}
	l.delta = l.delta[:0]
	for _, t := range tasks {
		tab := l.x.idx.table(t.cr.head.rel, len(t.cr.head.terms))
		if tab == nil || tab.reserved == tab.rows {
			continue
		}
		lo := tab.rows
		n := tab.publish(l.x.idx.ver)
		l.x.n += n
		l.delta = append(l.delta, span{t: tab, lo: lo, hi: tab.rows})
		appended += n
		if t.cr.hook != nil {
			invented += n
		}
	}
	return appended, invented
}
