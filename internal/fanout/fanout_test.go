package fanout_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fanout"
)

// TestInOrderPlaysEachRunOnce: with no fold stopping it, InOrder plays
// every run exactly once and folds each in run order, over far more
// runs than its 2·GOMAXPROCS window holds; with no runs it plays and
// folds nothing.
func TestInOrderPlaysEachRunOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, 500} {
		plays := make([]atomic.Int32, n)
		folded := 0
		fanout.InOrder(n, func(k int) int {
			plays[k].Add(1)
			return k
		}, func(k int) bool {
			if k != folded {
				t.Fatalf("n=%d: fold %d got run %d", n, folded, k)
			}
			folded++
			return false
		})
		if folded != n {
			t.Errorf("n=%d: %d folds, want %d", n, folded, n)
		}
		for k := range plays {
			if p := plays[k].Load(); p != 1 {
				t.Errorf("n=%d: run %d played %d times", n, k, p)
			}
		}
	}
}

// TestInOrderConcurrentAndNested calls InOrder from several goroutines
// at once, each run calling it again, as concurrent explorations (the
// cmd/experiments rows) and nested ones do. No call may wait on another:
// each folds its own runs in order, stops at the fold that says so, and
// returns only after every run it started has returned.
func TestInOrderConcurrentAndNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var wg sync.WaitGroup
	for c := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var running atomic.Int32
			var folded []int
			stopAt := 10 + 7*c
			fanout.InOrder(64, func(k int) int {
				running.Add(1)
				defer running.Add(-1)
				inner := 0
				fanout.InOrder(3, func(j int) int { return j }, func(j int) bool { inner = 10*inner + j; return false })
				return 100*k + inner
			}, func(r int) bool {
				folded = append(folded, r)
				return r/100 == stopAt
			})
			if n := running.Load(); n != 0 {
				t.Errorf("caller %d: InOrder returned with %d runs still playing", c, n)
			}
			for k, r := range folded {
				if r != 100*k+12 {
					t.Errorf("caller %d: fold %d got %d, want %d", c, k, r, 100*k+12)
					break
				}
			}
			if len(folded) != stopAt+1 {
				t.Errorf("caller %d: %d folds, want %d (stop at run %d)", c, len(folded), stopAt+1, stopAt)
			}
		}()
	}
	wg.Wait()
}
