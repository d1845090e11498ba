package transducer_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// explored is what an exploration hands back that must not depend on
// how its runs were spread over goroutines.
type explored struct {
	violation string // kind, schedule, step and bad fact; "" for none
	stats     transducer.ExploreStats
	sched     string // the event scheduler's totals (netsim.Sweep only)
	trace     string // the explore.* events
}

func violation(v *transducer.ScheduleViolation) string {
	if v == nil {
		return ""
	}
	bad := ""
	if v.Bad != nil {
		bad = v.Bad.String()
	}
	return fmt.Sprintf("%v %s step %d %s", v.Kind, v.Schedule, v.Step, bad)
}

// addStats folds b into a as ExploreStats.Record folds a run.
func addStats(a *transducer.ExploreStats, b transducer.ExploreStats) {
	a.Schedules += b.Schedules
	a.Aborted += b.Aborted
	a.Violations += b.Violations
	a.Transitions += b.Transitions
	a.Sim.Merge(b.Sim)
}

// TestExploreFoldsInScheduleOrder holds both explorers to the serial
// loop they replace. Each runs, at GOMAXPROCS 4, a seed sweep whose
// first violating seed lies past the fan-out's first window of
// 2·GOMAXPROCS runs and whose later seeds violate too, so a fold that
// took runs as they finished would report another violation, other
// stats or another trace. The result must equal the same sweep stepped
// one seed at a time (Seeds 1, BaseSeed += 1) and the sweep at
// GOMAXPROCS 1. The pair is domain-request on QTC under crash faults,
// outside the fault model FaultConfigFor grants it
// (internal/core TestCrashRestartBreaksDomainRequestCertificates).
func TestExploreFoldsInScheduleOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	graph := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d) E(d,e)`)
	want, err := queries.ComplementTC().Eval(graph)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.MustBuild(core.DomainRequest, queries.ComplementTC())
	faults := transducer.DefaultFaultConfig()
	mod := core.DomainRequest.RequiredModel()

	// run explores seeds base … base+seeds-1 after the fault-free
	// baseline; fair is that baseline's share of the stats.
	type explorer struct {
		run         func(base int64, seeds int) explored
		fair        func(base int64) transducer.ExploreStats
		base        int64
		seeds       int
		first, next string // the first two violating schedules, by label prefix
	}
	net := transducer.MustNetwork("n1", "n2", "n3")
	pol := transducer.DomainGuided(transducer.HashAssignment(net))
	topo := generate.MustTopology(generate.TopoRing, 3, 5)
	cases := map[string]explorer{
		"ExploreSchedules": {
			run: func(base int64, seeds int) explored {
				var buf bytes.Buffer
				v, st, err := transducer.ExploreSchedules(net, tr, pol, mod, graph, want, transducer.ExploreOptions{
					Seeds: seeds, BaseSeed: base, Faults: faults,
					SkipStarvation: true, SkipAdversary: true, Tracer: obs.NewStream(&buf),
				})
				if err != nil {
					t.Fatal(err)
				}
				return explored{violation: violation(v), stats: st, trace: buf.String()}
			},
			fair: func(int64) (st transducer.ExploreStats) {
				s, err := transducer.NewSimulation(net, tr, pol, mod, graph)
				if err != nil {
					t.Fatal(err)
				}
				s.Want = want
				out, err := s.RunToQuiescence(s.RoundBound(0))
				if _, err := st.Record(s, "fair", out, err, nil); err != nil {
					t.Fatal(err)
				}
				return st
			},
			base: 116, seeds: 24, first: "seed:123 ", next: "seed:125 ",
		},
		"netsim.Sweep": {
			run: func(base int64, seeds int) explored {
				var buf bytes.Buffer
				v, st, err := netsim.Sweep(topo, netsim.RouteBroadcast, tr, pol, mod, graph, want, netsim.SweepOptions{
					Seeds: seeds, BaseSeed: base, Faults: faults, Tracer: obs.NewStream(&buf),
				})
				if err != nil {
					t.Fatal(err)
				}
				return explored{violation: violation(v), stats: st.ExploreStats, trace: buf.String(),
					sched: fmt.Sprintf("events %d schedops %d heapmax %d", st.Events, st.SchedOps, st.HeapMax)}
			},
			fair: func(base int64) (st transducer.ExploreStats) {
				s, err := netsim.New(net, tr, pol, mod, graph, netsim.Options{Topo: topo, Routing: netsim.RouteBroadcast, Seed: base, Want: want})
				if err != nil {
					t.Fatal(err)
				}
				out, err := s.Run()
				if _, err := st.Record(s.Simulation, "event-fair", out, err, nil); err != nil {
					t.Fatal(err)
				}
				return st
			},
			base: 30, seeds: 24, first: "event-seed:40 ", next: "event-seed:47 ",
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			// Stepped: every call runs the baseline, then one seed.
			// Only the first call's baseline belongs to the sweep, so
			// the later ones' trace lines are dropped and their stats
			// added to the other side.
			var stepped explored
			var baselines transducer.ExploreStats
			type hit struct {
				k int
				v string
			}
			var hits []hit
			for k := 0; k < c.seeds; k++ {
				r := c.run(c.base+int64(k), 1)
				done := len(hits) > 0
				if r.violation != "" {
					hits = append(hits, hit{k, r.violation})
				}
				if done {
					continue // only to see that later seeds violate too
				}
				if k > 0 {
					r.trace = r.trace[strings.IndexByte(r.trace, '\n')+1:]
					addStats(&baselines, c.fair(c.base+int64(k)))
				}
				stepped.violation = r.violation
				stepped.trace += r.trace
				addStats(&stepped.stats, r.stats)
			}
			// Seed k is run k+1 of the sweep, after the baseline.
			window := 2 * runtime.GOMAXPROCS(0)
			if len(hits) < 2 || hits[0].k+1 < window || !strings.Contains(hits[0].v, c.first) || !strings.Contains(hits[1].v, c.next) {
				t.Fatalf("violating seeds %+v: want %s first, at run %d or later, and %s after it", hits, c.first, window, c.next)
			}

			fanned := c.run(c.base, c.seeds)
			got := fanned
			addStats(&got.stats, baselines)
			if got.violation != stepped.violation || got.stats != stepped.stats || got.trace != stepped.trace {
				t.Errorf("GOMAXPROCS %d differs from stepping one seed at a time:\n got %s\n     %+v (baselines added)\n%s\nwant %s\n     %+v\n%s",
					runtime.GOMAXPROCS(0), fanned.violation, got.stats, fanned.trace, stepped.violation, stepped.stats, stepped.trace)
			}

			prev := runtime.GOMAXPROCS(1)
			serial := c.run(c.base, c.seeds)
			runtime.GOMAXPROCS(prev)
			if fanned != serial {
				t.Errorf("GOMAXPROCS %d differs from GOMAXPROCS 1:\n got %+v\nwant %+v", prev, fanned, serial)
			}
		})
	}
}
