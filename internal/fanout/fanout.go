// Package fanout is the engine's one worker set. A fanned-out
// fixpoint round (internal/datalog), ExploreSchedules
// (internal/transducer) and netsim.Sweep play their runs through
// InOrder; no other package of the evaluation or exploration layers
// starts a goroutine (scripts/check.sh gates it).
//
// A run is a pure function of its index — a round's task, a schedule's
// label — so it may take any goroutine; only the fold — the round's
// counters, the verdict, the stats, the tracer — has an order. Runs
// are played by a process-lifetime set of workers, sized from
// GOMAXPROCS at first use and fed over an unbuffered channel: a set
// spawned per call left goroutine descriptors piling up in the runtime
// and raised the explorer's live heap by a sixth (DESIGN.md §6). A run
// no worker is free to take is played by the caller itself, so
// concurrent and nested callers never wait on each other.
package fanout

import (
	"runtime"
	"sync"
)

var (
	startWorkers sync.Once
	work         chan func()
)

// InOrder plays runs 0 … n-1, each on whichever goroutine is free, and
// folds them on the caller's goroutine strictly in run order, stopping
// at the first fold that returns true. At most 2·GOMAXPROCS finished
// runs wait unfolded at once. InOrder returns once every run it started
// has returned, so what a fold sees is what a serial loop would have
// seen, at any GOMAXPROCS.
func InOrder[R any](n int, play func(k int) R, fold func(R) (stop bool)) {
	startWorkers.Do(func() {
		work = make(chan func())
		for range runtime.GOMAXPROCS(0) {
			go func() {
				for job := range work {
					job()
				}
			}()
		}
	})
	slots := make([]chan R, min(n, 2*runtime.GOMAXPROCS(0)))
	for i := range slots {
		slots[i] = make(chan R, 1)
	}
	started, stop := 0, false
	for folded := 0; folded < started || (!stop && started < n); {
		if !stop && started < n && started-folded < len(slots) {
			k, slot := started, slots[started%len(slots)]
			job := func() { slot <- play(k) }
			select {
			case work <- job:
			default:
				job()
			}
			started++
			continue
		}
		r := <-slots[folded%len(slots)]
		folded++
		stop = stop || fold(r)
	}
}
