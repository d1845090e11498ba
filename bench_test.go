// Benchmark harness: one benchmark per figure of the paper plus the
// performance ablations recorded in EXPERIMENTS.md. Run with
//
//	go test -bench=. -benchmem
//
// BenchmarkFig1Hierarchy and BenchmarkFig2Fragments regenerate the
// separation/inclusion matrices; the remaining benchmarks measure the
// engineering ablations (naive vs semi-naive fixpoints, strategy
// message complexity, network scaling, and the alternating fixpoint).
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// BenchmarkFig1Hierarchy re-checks the canonical separation witnesses
// of Theorem 3.1 (the edges of Figure 1) per iteration.
func BenchmarkFig1Hierarchy(b *testing.B) {
	type pair struct {
		q    monotone.Query
		i, j *fact.Instance
	}
	star2 := generate.Star("c", "s", 2)
	witnesses := []pair{
		{queries.NoLoop(), fact.MustParseInstance(`E(a,b)`), fact.MustParseInstance(`E(a,a)`)},
		{queries.ComplementTC(), fact.MustParseInstance(`E(a,a) E(b,b)`), fact.MustParseInstance(`E(a,c) E(c,b)`)},
		{queries.TrianglesUnlessTwoDisjoint(), generate.Triangle("a", "b", "c"), generate.Triangle("x", "y", "z")},
		{queries.KClique(3), generate.Clique("v", 2), fact.MustParseInstance(`E(w,v0) E(w,v1)`)},
		{queries.KStar(3), star2, fact.MustParseInstance(`E(c,extra)`)},
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, w := range witnesses {
			viol, err := monotone.CheckPair(w.q, w.i, w.j)
			if err != nil {
				b.Fatal(err)
			}
			if viol == nil {
				b.Fatalf("witness for %s vanished", w.q.Name())
			}
		}
	}
}

// BenchmarkFig2Fragments classifies the paper's programs into the
// Datalog fragments of Figure 2 per iteration.
func BenchmarkFig2Fragments(b *testing.B) {
	progs := []*datalog.Program{
		queries.TCProgram(),
		queries.ComplementTCProgram(),
		queries.NoLoopProgram(),
		queries.Example51P1(),
		queries.Example51P2(),
		queries.KCliqueProgram(3),
		queries.KStarProgram(3),
		queries.DuplicateProgram(3),
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, p := range progs {
			if p.Classify() == datalog.FragUnstratifiable {
				b.Fatal("unexpected unstratifiable program")
			}
		}
	}
}

// evalModes enumerates the fixpoint strategies compared by the mode
// ablation benchmarks, in reporting order. Parallel mode uses
// GOMAXPROCS workers; run with -cpu 4 (or higher) to measure the
// multi-core speedup.
var evalModes = []struct {
	name string
	mode datalog.EvalMode
}{
	{"naive", datalog.Naive},
	{"seminaive", datalog.SemiNaive},
	{"parallel", datalog.Parallel},
}

// BenchmarkNaiveVsSemiNaive is the PERF.1 ablation: transitive closure
// over chains and random graphs under all three fixpoint strategies.
func BenchmarkNaiveVsSemiNaive(b *testing.B) {
	tc := queries.TCProgram()
	inputs := []struct {
		name string
		in   *fact.Instance
	}{
		{"chain32", generate.Path("v", 32)},
		{"cycle24", generate.Cycle("v", 24)},
		{"random48", generate.RandomGraph(newRand(1), "v", 16, 48)},
		{"grid5x5", generate.Grid("g", 5, 5)},
		{"tournament10", generate.Tournament(newRand(2), "v", 10)},
	}
	for _, c := range inputs {
		for _, m := range evalModes {
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				// One instrumented warm-up run collects the work profile
				// (deterministic per configuration); the timed loop below
				// stays uninstrumented so ns/op measures the bare engine.
				reg := obs.NewRegistry()
				if _, err := tc.Fixpoint(c.in, datalog.FixpointOptions{Mode: m.mode, Reg: reg}); err != nil {
					b.Fatal(err)
				}
				snap := reg.Snapshot()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := tc.Fixpoint(c.in, datalog.FixpointOptions{Mode: m.mode}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(snap.Counters[obs.DlDerivations]), "derivations/op")
				b.ReportMetric(float64(snap.Counters[obs.DlDuplicates]), "duplicates/op")
				b.ReportMetric(float64(snap.Counters[obs.DlRounds]), "rounds/op")
			})
		}
	}
}

// BenchmarkStrategyMessages is the PERF.2 ablation: message and
// transition counts of the three coordination-free strategies on the
// same workload (reported as custom metrics).
func BenchmarkStrategyMessages(b *testing.B) {
	net := transducer.MustNetwork("n1", "n2", "n3")
	in := generate.Cycle("v", 6)
	cases := []struct {
		name string
		s    core.Strategy
		q    monotone.Query
		pol  transducer.Policy
	}{
		{"broadcast/TC", core.Broadcast, queries.TC(), transducer.HashPolicy(net)},
		{"absence/NoLoop", core.Absence, queries.NoLoop(), transducer.HashPolicy(net)},
		{"domainreq/QTC", core.DomainRequest, queries.ComplementTC(), transducer.DomainGuided(transducer.HashAssignment(net))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			// Instrumented warm-up run for the quiescence tick; the timed
			// loop stays uninstrumented.
			reg := obs.NewRegistry()
			if _, err := core.ComputeRun(c.s, c.q, net, c.pol, in, core.RunConfig{Reg: reg}); err != nil {
				b.Fatal(err)
			}
			tick := reg.Snapshot().Gauges[obs.SimQuiescenceTick]
			b.ResetTimer()
			var msgs, trans int
			for n := 0; n < b.N; n++ {
				res, err := core.Compute(c.s, c.q, net, c.pol, in, 0)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Metrics.MessagesSent
				trans = res.Metrics.Transitions
			}
			b.ReportMetric(float64(msgs), "msgs/run")
			b.ReportMetric(float64(trans), "transitions/run")
			if tick > 0 {
				b.ReportMetric(float64(msgs)/float64(tick), "msgs/tick")
			}
		})
	}
}

// BenchmarkNetworkScaling measures the domain-request strategy as the
// network grows (PERF.2).
func BenchmarkNetworkScaling(b *testing.B) {
	in := generate.Cycle("v", 6)
	q := queries.ComplementTC()
	for _, size := range []int{1, 2, 4, 6} {
		nodes := make([]transducer.NodeID, size)
		for k := range nodes {
			nodes[k] = transducer.NodeID(fmt.Sprintf("n%d", k))
		}
		net := transducer.MustNetwork(nodes...)
		pol := transducer.DomainGuided(transducer.HashAssignment(net))
		b.Run(fmt.Sprintf("nodes%d", size), func(b *testing.B) {
			var msgs int
			for n := 0; n < b.N; n++ {
				res, err := core.Compute(core.DomainRequest, q, net, pol, in, 0)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Metrics.MessagesSent
			}
			b.ReportMetric(float64(msgs), "msgs/run")
		})
	}
}

// BenchmarkInputScaling measures the domain-request strategy as the
// input grows on a fixed two-node network (PERF.2).
func BenchmarkInputScaling(b *testing.B) {
	net := transducer.MustNetwork("n1", "n2")
	pol := transducer.DomainGuided(transducer.HashAssignment(net))
	q := queries.ComplementTC()
	for _, size := range []int{4, 8, 12} {
		in := generate.Cycle("v", size)
		b.Run(fmt.Sprintf("edges%d", size), func(b *testing.B) {
			var msgs int
			for n := 0; n < b.N; n++ {
				res, err := core.Compute(core.DomainRequest, q, net, pol, in, 0)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Metrics.MessagesSent
			}
			b.ReportMetric(float64(msgs), "msgs/run")
		})
	}
}

// winMoveGame builds the game graph used by the win-move benchmarks: a
// chain of moves with some back-edges, mixing won, lost and drawn
// positions.
func winMoveGame(size int) *fact.Instance {
	game := fact.NewInstance()
	for k := 0; k < size; k++ {
		game.Add(fact.New("Move",
			fact.Value(fmt.Sprintf("p%d", k)),
			fact.Value(fmt.Sprintf("p%d", k+1))))
		if k%3 == 0 {
			game.Add(fact.New("Move",
				fact.Value(fmt.Sprintf("p%d", k+1)),
				fact.Value(fmt.Sprintf("p%d", k))))
		}
	}
	return game
}

// BenchmarkWinMove measures the alternating-fixpoint well-founded
// evaluation of win-move on growing game graphs (PERF.3).
func BenchmarkWinMove(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		game := winMoveGame(size)
		b.Run(fmt.Sprintf("positions%d", size+1), func(b *testing.B) {
			prog := queries.WinMoveProgram()
			for n := 0; n < b.N; n++ {
				if _, err := queries.WellFounded(prog, game); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWFSDirectVsDoubled compares the direct alternating fixpoint
// with the doubled-program route on the same game graphs (PERF.3b).
func BenchmarkWFSDirectVsDoubled(b *testing.B) {
	prog := queries.WinMoveProgram()
	game := winMoveGame(16)
	b.Run("direct", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := queries.WellFounded(prog, game); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("doubled", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := queries.WellFoundedViaDoubled(prog, game); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoordinationFreeWitness measures the Definition 3 check
// (ideal policy + heartbeat prefix) for each strategy.
func BenchmarkCoordinationFreeWitness(b *testing.B) {
	net := transducer.MustNetwork("n1", "n2")
	in := generate.Cycle("v", 4)
	cases := []struct {
		name string
		s    core.Strategy
		q    monotone.Query
	}{
		{"broadcast/TC", core.Broadcast, queries.TC()},
		{"absence/NoLoop", core.Absence, queries.NoLoop()},
		{"domainreq/QTC", core.DomainRequest, queries.ComplementTC()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ok, err := core.VerifyCoordinationFree(c.s, c.q, net, in)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("witness lost")
				}
			}
		})
	}
}

// BenchmarkDatalogVsNative compares the Datalog engine against the
// hand-written native evaluators on the same queries.
func BenchmarkDatalogVsNative(b *testing.B) {
	in := generate.RandomGraph(newRand(2), "v", 10, 25)
	pairs := []struct {
		name   string
		native monotone.Query
		dl     monotone.Query
	}{
		{"TC", queries.TC(), queries.TCDatalog()},
		{"QTC", queries.ComplementTC(), queries.ComplementTCDatalog()},
		{"Q3clique", queries.KClique(3), queries.KCliqueDatalog(3)},
	}
	for _, p := range pairs {
		b.Run(p.name+"/native", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := p.native.Eval(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/datalog", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := p.dl.Eval(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
