package datalog

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fact"
	"repro/internal/obs"
)

// This file implements the parallel round executor of the semi-naive
// fixpoint: each round's (rule, pinned-atom, fact-chunk) join tasks
// are fanned across a worker pool. Workers read the shared
// IndexedInstance (frozen for the duration of a round) and derive into
// private buffers; the buffers are merged into the next delta at the
// round barrier, on a single goroutine. Rule evaluation is a pure
// function of (rule, index, instance, chunk), and derived facts carry
// set semantics, so the merged result is independent of scheduling —
// Parallel mode is deterministic and agrees with SemiNaive exactly.
//
// The pool is persistent: one fixpoint call spawns its workers once
// and reuses them every round, instead of paying a goroutine spawn per
// round — on long chains of small rounds that overhead dominated the
// joins themselves (the PERF.6 inversion). Rounds whose total
// pinned work falls below the adaptive inline threshold skip the pool
// entirely and run on the coordinator: distributing a dozen pinned
// facts costs more than joining them.
//
// The design follows the coordination-free evaluation direction of
// Interlandi & Tanca ("A Datalog-based Computational Model for
// Coordination-free, Data-Parallel Systems"): semi-naive deltas
// partition freely across evaluators as long as every evaluator sees
// the full instance for the non-pinned atoms.

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
// balance skewed rules across the pool.
const chunkTarget = 4

// ChunkFacts splits facts into at most workers*chunkTarget contiguous
// chunks of near-equal size — the pin lists of the tasks one rule's
// enumeration is partitioned into.
func ChunkFacts(facts []fact.Fact, workers int) [][]fact.Fact {
	if len(facts) == 0 {
		return nil
	}
	n := workers * chunkTarget
	if n > len(facts) {
		n = len(facts)
	}
	size := (len(facts) + n - 1) / n
	chunks := make([][]fact.Fact, 0, n)
	for start := 0; start < len(facts); start += size {
		end := start + size
		if end > len(facts) {
			end = len(facts)
		}
		chunks = append(chunks, facts[start:end])
	}
	return chunks
}

// ParallelEach calls fn(w, i) for every i in [0, n) on up to workers
// goroutines and returns once all have finished. w identifies the
// calling goroutine (0 <= w < max(workers, 1)), so callers can fold
// into per-w accumulators without locking; with workers <= 1 or n < 2
// everything runs on the caller's goroutine as w = 0. A goroutine stops
// calling fn after its first error; the error of the lowest such w is
// returned. This is the fan-out for enumerations outside the fixpoint
// rounds (which keep their persistent pool): incr's pinned-join and
// recount phases and ilog's per-round chunks.
func ParallelEach(workers, n int, fn func(w, i int) error) error {
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
		for _, chunk := range ChunkFacts(x.RelList(cr.src.Pos[0].Rel), workers) {
			tasks = append(tasks, ruleTask{cr: cr, ruleIdx: i, pin: 0, pinFacts: chunk})
		}
	}
	return tasks
}

// deltaTasks builds a semi-naive round's tasks: for every rule and
// every positive atom whose relation gained facts last round, the atom
// is pinned to the delta (chunked across the pool when parallel).
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
			for _, chunk := range ChunkFacts(dfacts, workers) {
				tasks = append(tasks, ruleTask{cr: cr, ruleIdx: i, pin: k, pinFacts: chunk})
			}
		}
	}
	return tasks
}

// roundCtx is one pooled round's shared state: per-worker derivation
// buffers, errors and instrumentation, all indexed by worker id and
// merged by the coordinator after the barrier.
type roundCtx struct {
	x      *IndexedInstance
	eo     *engineObs
	bufs   []*fact.Instance
	errs   []error
	aggs   []*roundAgg
	wTasks []int64
	wBusy  []int64
	failed atomic.Bool
	wg     sync.WaitGroup
}

// poolTask couples a task with its round.
type poolTask struct {
	t  ruleTask
	rc *roundCtx
}

// workerPool is the persistent executor owned by one semi-naive
// fixpoint call: workers are spawned lazily on the first pooled round
// and live until close. Rounds are separated by the roundCtx barrier,
// so workers never observe a mutating instance.
type workerPool struct {
	workers     int
	inlineBelow int
	tasks       chan poolTask
	started     bool
}

func newWorkerPool(workers, inlineBelow int) *workerPool {
	return &workerPool{
		workers:     workers,
		inlineBelow: inlineBelow,
		tasks:       make(chan poolTask, workers*chunkTarget),
	}
}

func (p *workerPool) start() {
	if p.started {
		return
	}
	p.started = true
	for w := 0; w < p.workers; w++ {
		go p.run(w)
	}
}

func (p *workerPool) close() {
	if p.started {
		close(p.tasks)
	}
}

func (p *workerPool) run(w int) {
	for pt := range p.tasks {
		runPoolTask(pt, w)
		pt.rc.wg.Done()
	}
}

func runPoolTask(pt poolTask, w int) {
	rc := pt.rc
	if rc.failed.Load() {
		return // drain remaining tasks after a failure
	}
	buf := rc.bufs[w]
	if buf == nil {
		buf = fact.NewInstance()
		rc.bufs[w] = buf
	}
	var err error
	if rc.eo == nil {
		err = deriveTask(pt.t, rc.x, buf, nil)
	} else {
		if rc.aggs[w] == nil {
			rc.aggs[w] = rc.eo.newRoundAgg()
		}
		start := time.Now()
		err = deriveTask(pt.t, rc.x, buf, rc.aggs[w])
		rc.wTasks[w]++
		rc.wBusy[w] += time.Since(start).Nanoseconds()
	}
	if err != nil {
		rc.errs[w] = err
		rc.failed.Store(true)
	}
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
// adaptive-inline measure compared against the pool threshold.
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

// runRound evaluates one round's tasks against the frozen x and
// returns the newly derived facts (those not already in x). With no
// pool — or when the round's pinned work is below the pool's inline
// threshold — the tasks run inline on the coordinator; otherwise they
// are distributed over the persistent pool and the per-worker buffers
// are merged at the barrier.
//
// Instrumentation (eo non-nil) accumulates per-task stats into
// worker-private roundAggs merged at the barrier; "derived" and
// "duplicates" are judged against the frozen x only, so the counts —
// and the emitted round event — are identical in inline and pooled
// execution.
func runRound(tasks []ruleTask, x *IndexedInstance, p *workerPool, mode EvalMode, eo *engineObs) (*fact.Instance, error) {
	var stopRound func()
	if eo != nil {
		stopRound = eo.reg.Span(obs.DlRoundNs)
	}
	derived := fact.NewInstance()
	if p == nil || len(tasks) <= 1 || pinnedWork(tasks) < p.inlineBelow {
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

	p.start()
	rc := &roundCtx{
		x:    x,
		eo:   eo,
		bufs: make([]*fact.Instance, p.workers),
		errs: make([]error, p.workers),
	}
	if eo != nil {
		rc.aggs = make([]*roundAgg, p.workers)
		rc.wTasks = make([]int64, p.workers)
		rc.wBusy = make([]int64, p.workers)
	}
	rc.wg.Add(len(tasks))
	for i := range tasks {
		p.tasks <- poolTask{t: tasks[i], rc: rc}
	}
	rc.wg.Wait()

	for _, err := range rc.errs {
		if err != nil {
			return nil, err
		}
	}
	for _, buf := range rc.bufs {
		if buf != nil {
			derived.AddAll(buf)
		}
	}
	if eo != nil {
		agg := eo.newRoundAgg()
		for _, a := range rc.aggs {
			if a != nil {
				agg.merge(a)
			}
		}
		eo.roundDone(mode, len(tasks), agg, derived, rc.wTasks, rc.wBusy)
		stopRound()
	}
	return derived, nil
}
