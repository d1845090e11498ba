package datalog

import (
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
)

// workSpan evaluates the program semi-naively with every round's task
// list chunked for p workers, as a fanned-out round builds it, and
// returns Σ W / Σ max(S, W/p) over the rounds: W a round's candidates
// scanned, S its largest task's. It is the speedup an ideal p-worker
// schedule of the engine's own tasks reaches when joins are the cost —
// a deterministic figure, unlike a wall clock on a box with two cores.
func workSpan(t *testing.T, prog *Program, in *fact.Instance, p int) float64 {
	t.Helper()
	rho, err := prog.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	x := IndexInstance(in)
	var work, span float64
	for _, rules := range prog.Strata(rho) {
		crs := compileRules(rules)
		l := &stratumLoop{x: x, workers: p}
		// The tasks run one after another, each reserving its heads as an
		// inline task does; joins read committed rows only, so a task's
		// candidates are what it scans on a worker.
		round := func(tasks []ruleTask) {
			var w, s int64
			for _, task := range tasks {
				var ts taskStats
				if err := deriveTask(task, x, nil, &ts); err != nil {
					t.Fatal(err)
				}
				w += ts.candidates
				s = max(s, ts.candidates)
			}
			work += float64(w)
			span += max(float64(s), float64(w)/float64(p))
			l.barrier(tasks, false)
		}
		for round(fullPassTasks(crs, x, p)); len(l.delta) > 0; {
			round(deltaTasks(crs, l.delta, p))
		}
	}
	return work / span
}

// TestParallelWorkSpan is the rule that keeps EvalMode Parallel
// (ROADMAP item 1): on the shapes the benchmark's batch workload
// evaluates, the work/span bound of the rounds' task lists must leave a
// p-worker schedule at least 1.3× to gain. Chunking keeps the largest
// task near W/(4p), so the bound sits at p; it falls when a rule's work
// stops following its pin list — one hub fact carrying a round, a
// chunk count that no longer grows with the width.
func TestParallelWorkSpan(t *testing.T) {
	tc := MustParseProgram(tcProgram)
	qtc := MustParseProgram(complementTC)
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, w := range []struct {
		name string
		prog *Program
		in   *fact.Instance
	}{
		{"tc/chain-256", tc, generate.Path("c", 256)},
		{"tc/random-240", tc, generate.RandomGraph(rng(1), "r", 240, 720)},
		{"tc/grid-18", tc, generate.Grid("g", 18, 18)},
		{"qtc/random-120", qtc, generate.RandomGraph(rng(2), "q", 120, 240)},
	} {
		for _, p := range []int{2, 4} {
			bound := workSpan(t, w.prog, w.in, p)
			t.Logf("%s p=%d: work/span %.2f", w.name, p, bound)
			if bound < 1.3 {
				t.Errorf("%s p=%d: work/span bound %.2f, want >= 1.3", w.name, p, bound)
			}
		}
	}
}
