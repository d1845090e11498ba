package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// Broadcast and Gossip carry an insert-only form (transducer.Delta)
// that Stepper.Step runs in place of the four queries. The four
// queries stay on the built transducer as the Section 4.1.2 definition
// and are the oracle here: every test below drives the transducer as
// built and a copy with the form cleared through the same schedule and
// demands identical bytes.

// fourQuery returns a copy of t that takes Step's full re-evaluation
// arm.
func fourQuery(t *transducer.Transducer) *transducer.Transducer {
	c := *t
	c.Delta = nil
	return &c
}

// countingQuery counts Eval calls.
type countingQuery struct {
	monotone.Query
	evals *int
}

func (c countingQuery) Eval(i *fact.Instance) (*fact.Instance, error) {
	*c.evals++
	return c.Query.Eval(i)
}

type deltaCase struct {
	name  string
	s     Strategy
	q     monotone.Query
	input *fact.Instance
}

func deltaCases(t *testing.T) []deltaCase {
	var cases []deltaCase
	for _, s := range []Strategy{Broadcast, Gossip} {
		cases = append(cases,
			deltaCase{s.String() + "/TC", s, queries.TC(), sweepGraph},
			deltaCase{s.String() + "/ternary", s, ternaryJoin(t), ternaryInput})
	}
	return cases
}

// TestDeltaMatchesFourQueriesUnderExplorer: the lockstep explorer's
// whole schedule family — fair, starvation, fresh-value adversaries,
// seeded dup/delay/partition/stall/crash plans — explores the same
// schedules with the same message flows on both arms.
func TestDeltaMatchesFourQueriesUnderExplorer(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for _, c := range deltaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.q.Eval(c.input)
			if err != nil {
				t.Fatal(err)
			}
			explore := func(tr *transducer.Transducer) (transducer.ExploreStats, []byte) {
				var buf bytes.Buffer
				v, stats, err := transducer.ExploreSchedules(sweepNet, tr, transducer.HashPolicy(sweepNet), c.s.RequiredModel(), c.input, want,
					transducer.ExploreOptions{Seeds: seeds, Faults: FaultConfigFor(c.s), Sink: obs.NewSink(&buf)})
				if err != nil || v != nil {
					t.Fatalf("in-class exploration broke: %v, %v", v, err)
				}
				return stats, buf.Bytes()
			}
			built := MustBuild(c.s, c.q)
			stats, stream := explore(built)
			oStats, oStream := explore(fourQuery(built))
			if stats != oStats {
				t.Errorf("explorer stats differ:\n delta %+v\noracle %+v", stats, oStats)
			}
			if !bytes.Equal(stream, oStream) {
				t.Error("explorer schedule streams differ")
			}
		})
	}
}

// TestDeltaMatchesFourQueriesPerTransition: seeded random schedules
// under seeded fault plans, compared transition by transition — JSONL
// trace, Metrics, network output and every node's final state.
func TestDeltaMatchesFourQueriesPerTransition(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for _, c := range deltaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			built := MustBuild(c.s, c.q)
			for seed := int64(1); seed <= int64(seeds); seed++ {
				plan := transducer.RandomFaultPlan(sweepNet, seed, FaultConfigFor(c.s))
				run := func(tr *transducer.Transducer) (string, transducer.Metrics) {
					sim, err := transducer.NewSimulation(sweepNet, tr, transducer.HashPolicy(sweepNet), c.s.RequiredModel(), c.input)
					if err != nil {
						t.Fatal(err)
					}
					sim.SetFaults(plan)
					var buf bytes.Buffer
					sim.Observe(obs.NewSink(&buf))
					out, err := sim.RunRandom(seed, 24, 64+plan.Horizon())
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					fmt.Fprintf(&buf, "out %v\n", out)
					for _, x := range sweepNet {
						fmt.Fprintf(&buf, "%s %v\n", x, sim.State(x))
					}
					return buf.String(), sim.RunMetrics()
				}
				trace, m := run(built)
				oTrace, oM := run(fourQuery(built))
				if m != oM {
					t.Fatalf("seed %d (%s): metrics differ:\n delta %+v\noracle %+v", seed, plan, m, oM)
				}
				if trace != oTrace {
					t.Fatalf("seed %d (%s): traces differ:\n--- delta\n%s--- oracle\n%s", seed, plan, trace, oTrace)
				}
			}
		})
	}
}

// TestDeltaMatchesFourQueriesInEventMode replays the configuration of
// netsim's ring16_faulty golden (duplication, delay, one stall, one
// crash) on the event scheduler. That golden pins gossip/TC as built
// across commits; this pins it, and the other three pairings, against
// the four-query arm.
func TestDeltaMatchesFourQueriesInEventMode(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 16, 41)
	net := netsim.NetworkOf(topo)
	for _, c := range deltaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			opts := netsim.Options{Topo: topo, Seed: 41}
			if c.s == Gossip {
				opts.Routing = netsim.RouteNeighbors
			}
			run := func(tr *transducer.Transducer) (string, transducer.Metrics) {
				s, err := netsim.New(net, tr, transducer.HashPolicy(net), c.s.RequiredModel(), c.input, opts)
				if err != nil {
					t.Fatal(err)
				}
				s.SetFaults(&transducer.FaultPlan{
					Seed: 41, DupProb: 0.3, DelayProb: 0.4, MaxDelay: 5,
					Stalls:  []transducer.Stall{{Node: "n03", From: 2, To: 9}},
					Crashes: []transducer.Crash{{Node: "n07", At: 6}},
				})
				var buf bytes.Buffer
				s.Observe(obs.NewSink(&buf))
				out, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := c.q.Eval(c.input); !out.Equal(want) || !s.Conserved() {
					t.Fatalf("faulty ring run: output %v, conserved %v", out, s.Conserved())
				}
				fmt.Fprintf(&buf, "events %d schedops %d out %v\n", s.Events(), s.SchedOps(), out)
				return buf.String(), s.RunMetrics()
			}
			built := MustBuild(c.s, c.q)
			trace, m := run(built)
			oTrace, oM := run(fourQuery(built))
			if m != oM || trace != oTrace {
				t.Fatalf("event-mode runs differ: metrics %+v vs %+v, trace %d vs %d bytes", m, oM, len(trace), len(oTrace))
			}
		})
	}
}

// TestDeltaEdgeCases names the transitions the evaluation rule turns
// on. Each row is one node's history — a start state (empty inside the
// machine), then delivered sets, with a crash wiping the state —
// stepped on both arms; every step must produce the
// same send set, Changed, OutNew and state, and the insert-only arm
// must evaluate the query exactly where the row says the known input
// grew.
func TestDeltaEdgeCases(t *testing.T) {
	const crash = "crash"
	rows := []struct {
		name         string
		local, start string
		steps        []string // a delivered set, or crash
		evals        []int    // insert-only arm, per step
	}{
		{"empty fragment's first transition, then its first fact",
			``, ``, []string{``, ``, `Xf_E(a,b)`, ``}, []int{1, 1, 1, 0}},
		{"a delivered fact equal to a local one",
			`E(a,b) E(b,c)`, ``, []string{``, `Xf_E(a,b)`, `Xf_E(a,b) Xf_E(c,d)`}, []int{1, 0, 1}},
		{"a local fact delivered on the very first transition",
			`E(a,b)`, ``, []string{`Xf_E(a,b)`, ``}, []int{1, 0}},
		{"duplicate-only delivery",
			`E(a,b)`, ``, []string{``, `Xf_E(b,c) Xf_E(c,d)`, `Xf_E(b,c) Xf_E(c,d)`, `Xf_E(c,d)`, ``}, []int{1, 1, 0, 0, 0}},
		{"crash then recovery rebroadcast",
			`E(a,b)`, ``, []string{``, `Xf_E(b,c)`, crash, `Xf_E(b,c) Xf_E(c,d)`, `Xf_E(b,c)`, crash, ``, ``}, []int{1, 1, 0, 1, 0, 0, 1, 0}},
		{"an unsent local fact under a kept state (Step called from outside the machine)",
			`E(a,b)`, `Xg_E(b,c) Xs_E(b,c) O(b,c)`, []string{``, ``}, []int{1, 0}},
	}
	for _, s := range []Strategy{Broadcast, Gossip} {
		for _, row := range rows {
			t.Run(s.String()+"/"+row.name, func(t *testing.T) {
				evals := 0
				built := MustBuild(s, countingQuery{queries.TC(), &evals})
				local := fact.MustParseInstance(row.local)
				history := func(tr *transducer.Transducer, perStep func(i, evals int)) []string {
					sp := transducer.Stepper{Net: sweepNet, Trans: tr, Pol: transducer.HashPolicy(sweepNet), Mod: s.RequiredModel()}
					state := fact.MustParseInstance(row.start)
					var log []string
					for i, m := range row.steps {
						before := evals
						if m == crash {
							state = fact.NewInstance()
						} else {
							res, err := sp.Step("n1", local, state, fact.MustParseInstance(m))
							if err != nil {
								t.Fatal(err)
							}
							log = append(log, fmt.Sprintf("step %d: sent %v changed %v new %v state %v", i, res.Sent, res.Changed, res.OutNew, state))
						}
						perStep(i, evals-before)
					}
					return log
				}
				got := history(built, func(i, n int) {
					if n != row.evals[i] {
						t.Errorf("step %d (%q): %d evaluations, want %d", i, row.steps[i], n, row.evals[i])
					}
				})
				want := history(fourQuery(built), func(int, int) {})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("histories differ:\n delta %q\noracle %q", got, want)
				}
			})
		}
	}
}

// ringRun builds the benchmark's shape — gossip/TC over ring
// neighbours, a five-edge input scattered by hash — around q.
func ringRun(t *testing.T, nodes int, tr *transducer.Transducer, in *fact.Instance) *netsim.Sim {
	t.Helper()
	topo := generate.MustTopology(generate.TopoRing, nodes, 5)
	net := netsim.NetworkOf(topo)
	s, err := netsim.New(net, tr, transducer.HashPolicy(net), Gossip.RequiredModel(), in,
		netsim.Options{Topo: topo, Routing: netsim.RouteNeighbors})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeltaEvaluationCount is the deterministic counter behind the
// wall-clock claim: a node evaluates the query once when it first
// learns anything and once per transition that brings it a new input
// fact, so a whole run stays within nodes × (|I| + 1) evaluations. The
// four-query arm evaluates once per transition (and once for the
// silent-start probe).
func TestDeltaEvaluationCount(t *testing.T) {
	const nodes = 32
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) E(d,a) E(b,e)`)
	count := func(clear bool) (evals int, m transducer.Metrics) {
		tr := MustBuild(Gossip, countingQuery{queries.TC(), &evals})
		if clear {
			tr = fourQuery(tr)
		}
		s := ringRun(t, nodes, tr, in)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return evals, s.RunMetrics()
	}
	evals, m := count(false)
	oEvals, oM := count(true)
	if m != oM {
		t.Fatalf("runs differ: %+v vs %+v", m, oM)
	}
	if oEvals != m.Transitions+1 {
		t.Errorf("four-query arm: %d evaluations over %d transitions, want one each plus the probe", oEvals, m.Transitions)
	}
	if bound := nodes * (in.Len() + 1); evals > bound {
		t.Errorf("insert-only arm: %d evaluations, bound nodes × (|I|+1) = %d", evals, bound)
	}
	// Every node learns the five facts in at most five growing
	// deliveries; the heartbeat after each change and the duplicates
	// from the other ring neighbour are the rest.
	if 2*evals > oEvals {
		t.Errorf("insert-only arm saved too little: %d of %d evaluations", evals, oEvals)
	}
	t.Logf("%d transitions: %d evaluations insert-only, %d four-query", m.Transitions, evals, oEvals)
}

// TestDeltaStepAllocs pins the allocations of the two transitions the
// insert-only form exists for, on a node that has settled on the full
// five-edge input (one local fact, thirty in the state). Beside each
// pin is what the same Step allocated at the parent commit, where the
// four-query arm was the only one.
func TestDeltaStepAllocs(t *testing.T) {
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) E(d,a) E(b,e)`)
	built := MustBuild(Gossip, queries.TC())
	s := ringRun(t, 16, built, in)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	x := s.Net[3]
	local, state := s.LocalInput(x), s.State(x)
	dup := fact.MustParseInstance(`Xf_E(a,b) Xf_E(b,e)`)
	for _, c := range []struct {
		name        string
		m           *fact.Instance
		pin, parent float64
	}{
		{"settled heartbeat", fact.NewInstance(), 9, 311},
		{"duplicate-only delivery", dup, 11, 383},
	} {
		measure := func(tr *transducer.Transducer) float64 {
			sp := transducer.Stepper{Net: s.Net, Trans: tr, Pol: s.Pol, Mod: s.Mod}
			return testing.AllocsPerRun(50, func() {
				res, err := sp.Step(x, local, state, c.m)
				if err != nil || res.Changed || !res.Sent.Empty() {
					panic(fmt.Sprint("not a settled transition: ", res, err))
				}
			})
		}
		got, oracle := measure(built), measure(fourQuery(built))
		t.Logf("%s: %v allocs insert-only, %v four-query", c.name, got, oracle)
		if got > c.pin {
			t.Errorf("%s: %v allocs per step, pinned at %v (parent commit: %v)", c.name, got, c.pin, c.parent)
		}
		if oracle < 10*got {
			t.Errorf("%s: four-query arm allocates %v, insert-only %v: the pin no longer measures the saving", c.name, oracle, got)
		}
	}
}
