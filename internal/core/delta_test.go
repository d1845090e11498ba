package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// Every strategy carries an insert-only form (transducer.Delta) that
// Stepper.Step runs in place of the four queries. The four queries stay
// on the built transducer as the Section 4.1.2 definition and are the
// oracle here: every test below drives the transducer as built and a
// copy with the form cleared through the same schedule and demands
// identical bytes — on queries inside the strategy's class and one
// class up, where the schedules that break the strategy must break it
// at the same step with the same fact.

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
	name    string
	s       Strategy
	q       monotone.Query
	input   *fact.Instance
	pol     func(transducer.Network) transducer.Policy
	mod     transducer.Model
	inClass bool
	// heavy marks a candidate set that costs the four-query arm
	// seconds (arity 3, or a random policy replicating facts): it runs
	// a quarter of the seeds, and not on the 16-node ring of the event
	// mode, where it sends past the event budget.
	heavy bool
}

func hashPolicy(net transducer.Network) transducer.Policy { return transducer.HashPolicy(net) }

func hashGuided(net transducer.Network) transducer.Policy {
	return transducer.DomainGuided(transducer.HashAssignment(net))
}

var deltaGame = fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c) Move(d,e)`)

// deltaCases covers the four strategies: the monotone two on TC and a
// ternary join; absence on NoLoop and the ternary SP query (in class)
// and on QTC (out of class); domain-request on QTC, win-move and the
// ternary SP query (in class) and on the triangles query (out of
// class); the policy-aware model with and without All; hash, random
// and domain-guided policies.
func deltaCases(t *testing.T) []deltaCase {
	var cases []deltaCase
	for _, s := range []Strategy{Broadcast, Gossip} {
		cases = append(cases,
			deltaCase{s.String() + "/TC", s, queries.TC(), sweepGraph, hashPolicy, s.RequiredModel(), true, false},
			deltaCase{s.String() + "/ternary", s, ternaryJoin(t), ternaryInput, hashPolicy, s.RequiredModel(), true, false})
	}
	ab, dr := Absence.String(), DomainRequest.String()
	noAll, all := transducer.PolicyAwareNoAll, transducer.PolicyAware
	randomPolicy := func(net transducer.Network) transducer.Policy { return transducer.RandomPolicy(net, 5) }
	randomGuided := func(net transducer.Network) transducer.Policy {
		return transducer.DomainGuided(transducer.RandomAssignment(net, 9))
	}
	return append(cases,
		deltaCase{ab + "/NoLoop", Absence, queries.NoLoop(), sweepGraph, hashPolicy, noAll, true, false},
		deltaCase{ab + "/NoLoop/All", Absence, queries.NoLoop(), sweepGraph, hashPolicy, all, true, false},
		deltaCase{ab + "/NoLoop/random", Absence, queries.NoLoop(), sweepGraph, randomPolicy, noAll, true, true},
		deltaCase{ab + "/ternary", Absence, ternarySP(t), ternaryInput, hashPolicy, noAll, true, true},
		deltaCase{ab + "/QTC", Absence, queries.ComplementTC(), sweepCycle, hashPolicy, noAll, false, false},
		deltaCase{dr + "/QTC", DomainRequest, queries.ComplementTC(), sweepGraph, hashGuided, noAll, true, false},
		deltaCase{dr + "/QTC/All", DomainRequest, queries.ComplementTC(), sweepGraph, hashGuided, all, true, false},
		deltaCase{dr + "/QTC/random", DomainRequest, queries.ComplementTC(), sweepGraph, randomGuided, noAll, true, true},
		deltaCase{dr + "/win-move", DomainRequest, queries.WinMove(), deltaGame, hashGuided, noAll, true, false},
		deltaCase{dr + "/ternary", DomainRequest, ternarySP(t), ternaryInput, hashGuided, noAll, true, true},
		deltaCase{dr + "/triangles", DomainRequest, queries.TrianglesUnlessTwoDisjoint(), twoTriangles, hashGuided, noAll, false, false},
	)
}

// TestEveryStrategyCarriesDelta: Build hands every strategy its
// insert-only form, so no strategy steps through the four-query arm.
func TestEveryStrategyCarriesDelta(t *testing.T) {
	for _, s := range []Strategy{Broadcast, Absence, DomainRequest, Gossip} {
		if MustBuild(s, queries.NoLoop()).Delta == nil {
			t.Errorf("%v: Build returned no insert-only form", s)
		}
	}
}

// TestDeltaMatchesFourQueriesUnderExplorer: the lockstep explorer's
// whole schedule family — fair, starvation, fresh-value adversaries,
// seeded dup/delay/partition/stall/crash plans — explores the same
// schedules with the same message flows on both arms, and out of class
// finds the same violation.
func TestDeltaMatchesFourQueriesUnderExplorer(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for _, c := range deltaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seeds := seeds
			if c.heavy {
				seeds /= 4
			}
			want, err := c.q.Eval(c.input)
			if err != nil {
				t.Fatal(err)
			}
			explore := func(tr *transducer.Transducer) (*transducer.ScheduleViolation, transducer.ExploreStats, []byte) {
				var buf bytes.Buffer
				v, stats, err := transducer.ExploreSchedules(sweepNet, tr, c.pol(sweepNet), c.mod, c.input, want,
					transducer.ExploreOptions{Seeds: seeds, Faults: FaultConfigFor(c.s), Sink: obs.NewSink(&buf)})
				if err != nil || (v != nil) == c.inClass {
					t.Fatalf("exploration (in class %v) found %v, %v", c.inClass, v, err)
				}
				return v, stats, buf.Bytes()
			}
			built := MustBuild(c.s, c.q)
			v, stats, stream := explore(built)
			oV, oStats, oStream := explore(fourQuery(built))
			if stats != oStats {
				t.Errorf("explorer stats differ:\n delta %+v\noracle %+v", stats, oStats)
			}
			if !bytes.Equal(stream, oStream) {
				t.Error("explorer schedule streams differ")
			}
			if v != nil && (v.Error() != oV.Error() || !v.Output.Equal(oV.Output)) {
				t.Errorf("violations differ:\n delta %v\noracle %v", v, oV)
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
			t.Parallel()
			seeds := seeds
			if c.heavy {
				seeds /= 4
			}
			built := MustBuild(c.s, c.q)
			for seed := int64(1); seed <= int64(seeds); seed++ {
				plan := transducer.RandomFaultPlan(sweepNet, seed, FaultConfigFor(c.s))
				run := func(tr *transducer.Transducer) (string, transducer.Metrics) {
					sim, err := transducer.NewSimulation(sweepNet, tr, c.pol(sweepNet), c.mod, c.input)
					if err != nil {
						t.Fatal(err)
					}
					sim.SetFaults(plan)
					var buf bytes.Buffer
					sim.Observe(obs.NewSink(&buf))
					out, err := sim.RunRandom(seed, 24, 64+plan.Horizon())
					if err != nil && c.inClass {
						t.Fatalf("seed %d: %v", seed, err)
					}
					// Out of class a run may end in an error; both arms must
					// end in the same one.
					fmt.Fprintf(&buf, "out %v err %v\n", out, err)
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
// crash — no crash for domain-request, whose certificates a crash
// falsifies) on the event scheduler. That golden pins gossip/TC as
// built across commits; this pins it, and every other pairing, against
// the four-query arm.
func TestDeltaMatchesFourQueriesInEventMode(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 16, 41)
	net := netsim.NetworkOf(topo)
	for _, c := range deltaCases(t) {
		if c.heavy {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opts := netsim.Options{Topo: topo, Seed: 41}
			if c.s == Gossip {
				opts.Routing = netsim.RouteNeighbors
			}
			plan := &transducer.FaultPlan{
				Seed: 41, DupProb: 0.3, DelayProb: 0.4, MaxDelay: 5,
				Stalls: []transducer.Stall{{Node: "n03", From: 2, To: 9}},
			}
			if FaultConfigFor(c.s).Crashes > 0 {
				plan.Crashes = []transducer.Crash{{Node: "n07", At: 6}}
			}
			run := func(tr *transducer.Transducer) (string, transducer.Metrics) {
				s, err := netsim.New(net, tr, c.pol(net), c.mod, c.input, opts)
				if err != nil {
					t.Fatal(err)
				}
				s.SetFaults(plan)
				var buf bytes.Buffer
				s.Observe(obs.NewSink(&buf))
				out, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := c.q.Eval(c.input); c.inClass && !out.Equal(want) || !s.Conserved() {
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

// edgePolicy gives node n1 every fact over {a, b, n1} and node n2 the
// rest: n1's completeness then turns on a value outside that set.
func edgePolicy(s Strategy) transducer.Policy {
	own := fact.NewValueSet("a", "b", "n1")
	if s == DomainRequest {
		return transducer.DomainGuided(transducer.AssignFunc(func(v fact.Value) []transducer.NodeID {
			if own.Has(v) {
				return []transducer.NodeID{"n1"}
			}
			return []transducer.NodeID{"n2"}
		}))
	}
	return transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
		if len(f.ADom().Minus(own)) == 0 {
			return []transducer.NodeID{"n1"}
		}
		return []transducer.NodeID{"n2"}
	})
}

// TestDeltaEdgeCases names the transitions the evaluation rule turns
// on. Each row is one node's history — a start state (empty inside the
// machine), then delivered sets, with a crash wiping the state —
// stepped on both arms; every step must produce the same send set,
// Changed, OutNew and state, and the insert-only arm must evaluate the
// query exactly where the row says: for the monotone strategies where
// the known input grew, for the other two wherever the node is
// complete. The flood rows take a third arm, on TC itself, which grows
// the output a node holds where the counted query is evaluated.
func TestDeltaEdgeCases(t *testing.T) {
	const crash = "crash"
	// Every absence n1 is not responsible for, once Xhello(n2) has put
	// n2 into its MyAdom; n1 detects the other candidate facts itself.
	n2Absences := `Xa_E(n2,n2)`
	for _, v := range []string{"a", "b", "n1"} {
		n2Absences += fmt.Sprintf(" Xa_E(n2,%s) Xa_E(%s,n2)", v, v)
	}
	type row struct {
		name         string
		local, start string
		steps        []string // a delivered set, or crash
		evals        []int    // insert-only arm, per step
	}
	flood := []row{
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
	rows := map[Strategy][]row{Broadcast: flood, Gossip: flood,
		Absence: {
			{"a hello id in m grows MyAdom and turns completeness off",
				`E(a,b)`, ``, []string{``, `Xhello(n2)`, ``}, []int{1, 0, 0}},
			{"delivered absences turn completeness on",
				`E(a,b)`, ``, []string{`Xhello(n2)`, n2Absences, ``}, []int{0, 1, 1}},
			{"the last missing absence arrives alone",
				`E(a,b)`, `Xval(n2)`, []string{`Xa_E(n2,n2) Xa_E(n2,a) Xa_E(n2,b) Xa_E(n2,n1) Xa_E(a,n2) Xa_E(b,n2)`, `Xa_E(n1,n2)`}, []int{0, 1}},
			{"a crash wipes Xb_ and Xg_",
				`E(a,b)`, ``, []string{`Xhello(n2) Xf_E(b,n1)`, n2Absences, crash, ``, `Xhello(n2)`}, []int{0, 1, 0, 1, 0}},
			{"a delivered fact brings a value the node is not responsible for",
				`E(a,b)`, ``, []string{``, `Xf_E(b,c)`, `Xa_E(c,c)`}, []int{1, 0, 0}},
		},
		DomainRequest: {
			{"an announced value turns completeness off, an Xok arriving in m turns it on",
				`E(a,b)`, ``, []string{``, `Xann(c)`, `Xr_E(n1,c,b,c) Xok(n1,c)`, ``, `Xok(n1,c)`}, []int{1, 0, 1, 1, 1}},
			{"an Xok for another node does not count",
				`E(a,b)`, ``, []string{`Xann(c)`, `Xok(n2,c)`, ``}, []int{0, 0, 0}},
			{"a request for a value the node is responsible for, then its acknowledgment",
				`E(a,b)`, ``, []string{``, `Xreq(n2,a) Xreq(n2,c)`, ``, `Xk_E(n2,a,a,b)`, `Xreq(n2,a)`, ``}, []int{1, 0, 0, 0, 0, 0}},
			{"a request for a value with no local fact is answered by an Xok alone",
				`E(a,b)`, ``, []string{`Xreq(n2,n1)`, ``}, []int{0, 0}},
		},
	}
	for _, s := range []Strategy{Broadcast, Gossip, Absence, DomainRequest} {
		for _, row := range rows[s] {
			t.Run(s.String()+"/"+row.name, func(t *testing.T) {
				evals := 0
				q, pol := monotone.Query(queries.TC()), transducer.HashPolicy(sweepNet)
				if s == Absence || s == DomainRequest {
					q, pol = queries.NoLoop(), edgePolicy(s)
				}
				built := MustBuild(s, countingQuery{q, &evals})
				local := fact.MustParseInstance(row.local)
				history := func(tr *transducer.Transducer, perStep func(i, evals int)) []string {
					sp := transducer.Stepper{Net: sweepNet, Trans: tr, Pol: pol, Mod: s.RequiredModel()}
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
				// countingQuery hides TC's Grow: the flood forms evaluate
				// above, and here grow the output they hold.
				if _, ok := q.(monotone.Grower); ok {
					if grown := history(MustBuild(s, q), func(int, int) {}); !reflect.DeepEqual(grown, want) {
						t.Errorf("histories differ:\n  grow %q\noracle %q", grown, want)
					}
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

// TestDeltaExploreEvaluationCount counts Q-evaluations over one chunk
// of the explore-faults benchmark's shape (four seeded fault plans
// after the fair, starvation and adversary schedules) for the two
// strategies the completeness gate guards: the insert-only arm must
// evaluate no more often than the four-query arm.
func TestDeltaExploreEvaluationCount(t *testing.T) {
	for _, c := range []struct {
		s   Strategy
		q   monotone.Query
		pol transducer.Policy
	}{
		{Absence, queries.NoLoop(), transducer.HashPolicy(sweepNet)},
		{DomainRequest, queries.ComplementTC(), sweepGuided()},
	} {
		count := func(clear bool) (int, transducer.ExploreStats) {
			evals := 0
			q := countingQuery{c.q, &evals}
			want, err := c.q.Eval(sweepGraph)
			if err != nil {
				t.Fatal(err)
			}
			tr := MustBuild(c.s, q)
			if clear {
				tr = fourQuery(tr)
			}
			v, stats, err := transducer.ExploreSchedules(sweepNet, tr, c.pol, c.s.RequiredModel(), sweepGraph, want,
				transducer.ExploreOptions{Seeds: 4, Faults: FaultConfigFor(c.s)})
			if err != nil || v != nil {
				t.Fatalf("%v: %v, %v", c.s, v, err)
			}
			return evals, stats
		}
		evals, stats := count(false)
		oEvals, oStats := count(true)
		if stats != oStats {
			t.Fatalf("%v: explorations differ: %+v vs %+v", c.s, stats, oStats)
		}
		if evals > oEvals {
			t.Errorf("%v: insert-only arm evaluates %d times, four-query arm %d", c.s, evals, oEvals)
		}
		t.Logf("%v: %d transitions, %d evaluations insert-only, %d four-query", c.s, stats.Transitions, evals, oEvals)
	}
}

// TestDeltaStepAllocs pins the allocations of the transitions the
// insert-only forms exist for. For the flood strategies: a whole run of
// the 16-node ring, per delivered message; a gossip node on the full
// five-edge input (one local fact, thirty in the state), settled; and
// the same node receiving the one edge it lacks, which makes it grow TC.
// Beside each pin is what the same run or Step allocated before the
// Stepper reused its accumulators and the flood form grew TC from the
// held output; the commit before the form allocated 311 and 383 on the
// settled rows, the one before the ID kernels 161 on the growing row.
// The ring's parent is the figure before instances found their columns
// in a slice and buffers stopped keying facts by strings (7.36 since).
// For absence and domain-request: a heartbeat of a node that has
// settled on sweepGraph. The node is complete, so both arms build the
// same known set and evaluate Q on it; counted apart from that, the
// insert-only arm must cost at most a tenth of the four-query arm.
func TestDeltaStepAllocs(t *testing.T) {
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) E(d,a) E(b,e)`)
	built := MustBuild(Gossip, queries.TC())

	// Allocations of Sim.Run per delivered message, the figure behind
	// netsim-ring's throughput: the transitions, the sends, the events
	// and the output, on runs built beforehand.
	const runs, ringPin, ringParent = 10, 8.0, 9.86
	sims := make([]*netsim.Sim, runs+1)
	for k := range sims {
		sims[k] = ringRun(t, 16, built, in)
	}
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		if _, err := sims[next].Run(); err != nil {
			panic(err)
		}
		next++
	})
	delivered := float64(sims[0].RunMetrics().MessagesDelivered)
	t.Logf("16-node ring: %v allocs per run, %.2f per delivered message", perRun, perRun/delivered)
	if perRun/delivered > ringPin {
		t.Errorf("16-node ring: %.2f allocs per delivered message, pinned at %v (parent: %v)", perRun/delivered, ringPin, ringParent)
	}

	s := sims[0]
	x := s.Net[3]
	measure := func(sp transducer.Stepper, x transducer.NodeID, local, state, m *fact.Instance) float64 {
		return testing.AllocsPerRun(50, func() {
			res, err := sp.Step(x, local, state, m)
			if err != nil || res.Changed || !res.Sent.Empty() {
				panic(fmt.Sprint("not a settled transition: ", res, err))
			}
		})
	}
	local, state := s.LocalInput(x), s.State(x)
	dup := fact.MustParseInstance(`Xf_E(a,b) Xf_E(b,e)`)
	for _, c := range []struct {
		name        string
		m           *fact.Instance
		pin, parent float64
	}{
		{"settled heartbeat", fact.NewInstance(), 0, 3},
		{"duplicate-only delivery", dup, 0, 3},
	} {
		arm := func(tr *transducer.Transducer) float64 {
			return measure(transducer.Stepper{Net: s.Net, Trans: tr, Pol: s.Pol, Mod: s.Mod}, x, local, state, c.m)
		}
		got, oracle := arm(built), arm(fourQuery(built))
		t.Logf("%s: %v allocs insert-only, %v four-query", c.name, got, oracle)
		if got > c.pin {
			t.Errorf("%s: %v allocs per step, pinned at %v (parent: %v)", c.name, got, c.pin, c.parent)
		}
		if oracle < 10*max(got, 1) {
			t.Errorf("%s: four-query arm allocates %v, insert-only %v: the pin no longer measures the saving", c.name, oracle, got)
		}
	}

	// Growing delivery: x's state as it stands before the edge e, which x
	// does not hold locally, first arrives — without e's got and sent
	// markers and without the closure pairs only e contributes. Each run
	// delivers e, which relays it and adds the missing pairs; the added
	// facts are removed again afterwards, which allocates nothing. What
	// is left is what the transition keeps: one Fact per new output and
	// the OutNew slice.
	var e fact.Fact
	for _, f := range in.Facts() {
		if !local.Has(f) {
			e = f
			break
		}
	}
	without, err := queries.TC().Eval(fact.NewInstance(slices.DeleteFunc(in.Facts(), e.Equal)...))
	if err != nil {
		t.Fatal(err)
	}
	added := []fact.Fact{fact.FromIDs(fact.InternString(relGot("E")), e.ArgIDs()), fact.FromIDs(fact.InternString(relSent("E")), e.ArgIDs())}
	for _, f := range state.Rel("O") {
		if !without.Has(f) {
			added = append(added, f)
		}
	}
	lacking := state.Clone()
	for _, f := range added {
		lacking.Remove(f)
	}
	sp := transducer.Stepper{Net: s.Net, Trans: built, Pol: s.Pol, Mod: s.Mod}
	m := fact.NewInstance(fact.FromIDs(fact.InternString(relFwd("E")), e.ArgIDs()))
	const growPin, growParent = 14, 68
	got := testing.AllocsPerRun(50, func() {
		res, err := sp.Step(x, local, lacking, m)
		if err != nil || len(res.OutNew) != len(added)-2 || res.Sent.Len() != 1 {
			panic(fmt.Sprint("not the growing transition: ", res, err))
		}
		for _, f := range added {
			lacking.Remove(f)
		}
	})
	t.Logf("growing delivery of %v: %v allocs, %d new outputs", e, got, len(added)-2)
	if got > growPin {
		t.Errorf("growing delivery: %v allocs per step, pinned at %v (parent: %v)", got, growPin, growParent)
	}

	for _, c := range []struct {
		s        Strategy
		q        monotone.Query
		pol      transducer.Policy
		kqParent float64
	}{
		{Absence, queries.NoLoop(), transducer.HashPolicy(sweepNet), 27},
		{DomainRequest, queries.ComplementTC(), sweepGuided(), 132},
	} {
		built := MustBuild(c.s, c.q)
		sim, err := transducer.NewSimulation(sweepNet, built, c.pol, c.s.RequiredModel(), sweepGraph)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunToQuiescence(64); err != nil {
			t.Fatal(err)
		}
		x := sweepNet[0]
		local, state := sim.LocalInput(x), sim.State(x)
		arm := func(tr *transducer.Transducer) float64 {
			sp := transducer.Stepper{Net: sweepNet, Trans: tr, Pol: c.pol, Mod: c.s.RequiredModel()}
			return measure(sp, x, local, state, fact.NewInstance())
		}
		got, oracle := arm(built), arm(fourQuery(built))
		// K is built as the form builds it, into a set reset per transition.
		known, k := newKnown(c.q.InputSchema(), relGot), fact.NewInstance()
		q := testing.AllocsPerRun(50, func() {
			k.Reset()
			if _, err := c.q.Eval(known.into(k, local, state)); err != nil {
				panic(err)
			}
		})
		t.Logf("%v settled heartbeat: %v allocs insert-only, %v four-query, %v of them building K and evaluating Q (%v with K built fresh, before the ID kernels)", c.s, got, oracle, q, c.kqParent)
		if got < q || 10*(got-q) > oracle-q {
			t.Errorf("%v settled heartbeat: %v allocs insert-only, %v four-query, %v in K and Q: the form costs more than a tenth", c.s, got, oracle, q)
		}
	}
}
