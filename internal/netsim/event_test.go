package netsim_test

import (
	"bytes"
	"errors"
	"hash"
	"hash/fnv"
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

// wantTC is the oracle for the topology runs: Q = transitive closure
// of the (small, policy-scattered) input graph.
func wantTC(t *testing.T, in *fact.Instance) *fact.Instance {
	t.Helper()
	want, err := queries.TC().Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// buildTopoSim wires a gossip transducer over a generated topology
// with neighbor routing — the sparse-activity configuration the event
// scheduler exists for.
func buildTopoSim(t *testing.T, topo *generate.Topology, in *fact.Instance, opts netsim.Options) *netsim.Sim {
	t.Helper()
	net := netsim.NetworkOf(topo)
	tr := core.MustBuild(core.Gossip, queries.TC())
	opts.Topo = topo
	opts.Routing = netsim.RouteNeighbors
	s, err := netsim.New(net, tr, transducer.HashPolicy(net), core.Gossip.RequiredModel(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGossipTopologyConvergence: on every topology kind, gossip over
// neighbor links must flood the scattered input and converge to Q(I),
// conserving every message.
func TestGossipTopologyConvergence(t *testing.T) {
	in := sixGraph()
	want := wantTC(t, in)
	for _, kind := range []generate.TopoKind{
		generate.TopoRing, generate.TopoStar, generate.TopoTree, generate.TopoPowerLaw, generate.TopoWAN,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			topo := generate.MustTopology(kind, 32, 13)
			s := buildTopoSim(t, topo, in, netsim.Options{Seed: 3})
			out, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(want) {
				t.Fatalf("gossip on %v diverged:\n got %v\nwant %v", kind, out, want)
			}
			if !s.Conserved() {
				t.Fatalf("%v broke conservation", kind)
			}
			if s.HeapMax() == 0 {
				t.Fatal("heap depth never recorded")
			}
		})
	}
}

// TestBroadcastRoutingMatchesNilTopo: with broadcast routing a
// non-WAN topology only names the nodes — the run must be
// byte-identical to the same network with no topology at all.
func TestBroadcastRoutingMatchesNilTopo(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 12, 0)
	net := netsim.NetworkOf(topo)
	tr := core.MustBuild(core.Broadcast, queries.TC())
	in := sixGraph()

	run := func(opts netsim.Options) (*fact.Instance, []byte) {
		s, err := netsim.New(net, tr, transducer.HashPolicy(net), core.Broadcast.RequiredModel(), in, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		s.Observe(obs.NewStream(&buf))
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out, buf.Bytes()
	}
	outA, streamA := run(netsim.Options{Topo: topo, Routing: netsim.RouteBroadcast, Seed: 9})
	outB, streamB := run(netsim.Options{Seed: 9})
	if !outA.Equal(outB) {
		t.Fatal("broadcast routing changed the output")
	}
	if !bytes.Equal(streamA, streamB) {
		t.Fatal("broadcast routing changed the event stream")
	}
}

// TestSweepCleanPowerLaw: a seeded fault sweep over a power-law
// topology must find no violation for the in-class gossip strategy
// and account its scheduler work.
func TestSweepCleanPowerLaw(t *testing.T) {
	topo := generate.MustTopology(generate.TopoPowerLaw, 48, 17)
	in := sixGraph()
	want := wantTC(t, in)
	net := netsim.NetworkOf(topo)
	tr := core.MustBuild(core.Gossip, queries.TC())

	var buf bytes.Buffer
	v, stats, err := netsim.Sweep(topo, netsim.RouteNeighbors, tr,
		transducer.HashPolicy(net), core.Gossip.RequiredModel(), in, want,
		netsim.SweepOptions{Seeds: 4, Faults: core.FaultConfigFor(core.Gossip), Tracer: obs.NewStream(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("clean sweep found a violation: %v", v)
	}
	if stats.Schedules != 5 || stats.Violations != 0 || stats.Aborted != 0 {
		t.Fatalf("stats off: %+v", stats)
	}
	if stats.Events == 0 || stats.SchedOps == 0 || stats.HeapMax == 0 {
		t.Fatalf("sweep accounted no scheduler work: %+v", stats)
	}
	if !bytes.Contains(buf.Bytes(), []byte(obs.EvSchedule)) {
		t.Fatal("sweep emitted no schedule events")
	}
	reg := obs.NewRegistry()
	stats.Publish(reg)
	if reg.Counter(obs.ExploreSchedules).Value() != int64(stats.Schedules) {
		t.Fatal("Publish did not export run count")
	}
}

// TestSweepDetectsDivergence: a wrong oracle must surface as a
// Divergence violation on the baseline run, with a violation event on
// the tracer.
func TestSweepDetectsDivergence(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 16, 1)
	in := sixGraph()
	want := wantTC(t, in)
	bogus := fact.NewInstance()
	for _, f := range want.Facts() {
		bogus.Add(f)
	}
	bogus.Add(fact.New("T", "nope", "nothere"))
	net := netsim.NetworkOf(topo)
	tr := core.MustBuild(core.Gossip, queries.TC())

	var buf bytes.Buffer
	v, stats, err := netsim.Sweep(topo, netsim.RouteNeighbors, tr,
		transducer.HashPolicy(net), core.Gossip.RequiredModel(), in, bogus,
		netsim.SweepOptions{Seeds: 3, Tracer: obs.NewStream(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Kind != transducer.Divergence {
		t.Fatalf("expected a divergence violation, got %v", v)
	}
	if stats.Violations != 1 || stats.Aborted != 1 || stats.Schedules != 1 {
		t.Fatalf("stats off after violation: %+v", stats)
	}
	if !bytes.Contains(buf.Bytes(), []byte(obs.EvViolation)) {
		t.Fatal("violation never hit the tracer")
	}
}

// TestSweepSeparatesErrorsFromNoQuiescence: only an exhausted event
// bound is a NoQuiescence violation. A failed transition — here an Out
// query emitting a fact outside its target schema — comes back as the
// error it is, with the run still accounted as aborted.
func TestSweepSeparatesErrorsFromNoQuiescence(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 16, 1)
	in := sixGraph()
	want := wantTC(t, in)
	net := netsim.NetworkOf(topo)
	sweep := func(tr *transducer.Transducer, opts netsim.SweepOptions) (*transducer.ScheduleViolation, netsim.SweepStats, error) {
		return netsim.Sweep(topo, netsim.RouteNeighbors, tr, transducer.HashPolicy(net), core.Gossip.RequiredModel(), in, want, opts)
	}

	v, stats, err := sweep(core.MustBuild(core.Gossip, queries.TC()), netsim.SweepOptions{Seeds: 1, MaxEvents: 10})
	if err != nil || v == nil || v.Kind != transducer.NoQuiescence {
		t.Fatalf("exhausted bound: want a no-quiescence violation, got %v, %v", v, err)
	}
	if stats.Violations != 1 || stats.Aborted != 1 {
		t.Fatalf("stats off after no-quiescence: %+v", stats)
	}

	offSchema := &transducer.Transducer{
		Schema: transducer.Schema{In: fact.GraphSchema(), Out: fact.MustSchema(map[string]int{"O": 2})},
		Out: func(*fact.Instance) (*fact.Instance, error) {
			return fact.NewInstance(fact.New("Stray", "a")), nil
		},
	}
	var buf bytes.Buffer
	v, stats, err = sweep(offSchema, netsim.SweepOptions{Seeds: 1, Tracer: obs.NewStream(&buf)})
	if v != nil || err == nil || errors.Is(err, transducer.ErrNoQuiescence) || !strings.Contains(err.Error(), "outside its target schema") {
		t.Fatalf("off-schema output: want the query error back, got %v, %v", v, err)
	}
	if stats.Schedules != 1 || stats.Violations != 0 || stats.Aborted != 1 {
		t.Fatalf("stats off after an error: %+v", stats)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"aborted":true`)) || bytes.Contains(buf.Bytes(), []byte(obs.EvViolation)) {
		t.Fatalf("an errored run is an aborted schedule, not a violation: %s", buf.Bytes())
	}
}

// TestSweepReportsFirstWrongStep: a wrong fact's Step is the transition
// that appended it, not the end of the run. Broadcast computes only
// monotone queries, so on NoLoop a node that has seen E(c,d) but not
// yet E(d,d) outputs O(d): at transition 3 of the fault-free run, which
// goes on to transition 11.
func TestSweepReportsFirstWrongStep(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 4, 1)
	net := netsim.NetworkOf(topo)
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) E(d,d)`)
	want, err := queries.NoLoop().Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	v, stats, err := netsim.Sweep(topo, netsim.RouteBroadcast, core.MustBuild(core.Broadcast, queries.NoLoop()),
		transducer.HashPolicy(net), core.Broadcast.RequiredModel(), in, want, netsim.SweepOptions{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Kind != transducer.WrongFact || !v.Bad.Equal(fact.New("O", "d")) {
		t.Fatalf("want the wrong fact O(d), got %v", v)
	}
	if v.Step != 3 || stats.Transitions != 11 {
		t.Fatalf("O(d) reported at step %d of a %d-transition run, want step 3 of 11", v.Step, stats.Transitions)
	}
}

// TestSchedOpsAdvantage pins the reason this subsystem exists: on a
// sparse-activity workload — a small input scattered over a large
// ring where one node is stalled for a long fault window, so most
// nodes are idle for most of logical time — the event schedule must
// spend at least 10x fewer scheduler operations than the dense
// schedule of the same machine. RunToQuiescence keeps sweeping all N
// nodes until the fault horizon passes, one visit per clock tick; the
// event scheduler reschedules the stalled node to the window's end and
// jumps the clock straight there.
func TestSchedOpsAdvantage(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 256, 5)
	in := sixGraph()
	want := wantTC(t, in)
	plan := mustPlan(t, "stall=n001@5-50000", 11)

	dense := buildTopoSim(t, topo, in, netsim.Options{})
	dense.SetFaults(plan)
	outDense, err := dense.RunToQuiescence(100000)
	if err != nil {
		t.Fatal(err)
	}
	ev := buildTopoSim(t, topo, in, netsim.Options{})
	ev.SetFaults(plan)
	outEv, err := ev.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !outDense.Equal(want) || !outEv.Equal(want) {
		t.Fatal("schedulers disagree with the oracle")
	}
	ratio := float64(dense.Clock()) / float64(ev.SchedOps())
	t.Logf("sched ops: dense=%d event=%d ratio=%.1fx", dense.Clock(), ev.SchedOps(), ratio)
	if ratio < 10 {
		t.Fatalf("event scheduler advantage %.1fx, want >= 10x (dense=%d event=%d)",
			ratio, dense.Clock(), ev.SchedOps())
	}
}

// hashWriter folds a byte stream into an FNV-64a digest so the
// thousand-node test can compare full event streams without holding
// them in memory.
type hashWriter struct{ h hash.Hash64 }

func (w *hashWriter) Write(p []byte) (int, error) { return w.h.Write(p) }

// TestThousandNodePowerLaw is the acceptance-scale run: a seeded
// fault sweep over a >= 1000-node power-law topology completes, and
// equal seeds produce byte-identical event streams.
func TestThousandNodePowerLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node sweep skipped in -short")
	}
	topo := generate.MustTopology(generate.TopoPowerLaw, 1024, 23)
	in := sixGraph()
	want := wantTC(t, in)
	net := netsim.NetworkOf(topo)
	tr := core.MustBuild(core.Gossip, queries.TC())

	v, stats, err := netsim.Sweep(topo, netsim.RouteNeighbors, tr,
		transducer.HashPolicy(net), core.Gossip.RequiredModel(), in, want,
		netsim.SweepOptions{Seeds: 2, Faults: core.FaultConfigFor(core.Gossip)})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("thousand-node sweep violated: %v", v)
	}
	if stats.Schedules != 3 {
		t.Fatalf("expected 3 runs, got %+v", stats)
	}

	digest := func(seed int64) uint64 {
		s := buildTopoSim(t, topo, in, netsim.Options{Seed: seed})
		s.SetFaults(netsim.TopologyFaultPlan(topo, net, seed, core.FaultConfigFor(core.Gossip)))
		w := &hashWriter{h: fnv.New64a()}
		s.Observe(obs.NewStream(w))
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatal("seeded thousand-node run diverged")
		}
		return w.h.Sum64()
	}
	a, b, c := digest(41), digest(41), digest(42)
	if a != b {
		t.Fatal("equal seeds produced different event streams at 1024 nodes")
	}
	if a == c {
		t.Fatal("different seeds produced identical streams at 1024 nodes")
	}
}

// TestOptionsValidation covers the construction and routing guard
// rails.
func TestOptionsValidation(t *testing.T) {
	net := sixNodes()
	tr := core.MustBuild(core.Broadcast, queries.TC())
	pol := transducer.HashPolicy(net)
	in := sixGraph()

	if _, err := netsim.New(net, tr, pol, core.Broadcast.RequiredModel(), in,
		netsim.Options{Routing: netsim.RouteNeighbors}); err == nil {
		t.Error("neighbor routing without a topology must fail")
	}
	topo := generate.MustTopology(generate.TopoRing, 8, 0)
	if _, err := netsim.New(net, tr, pol, core.Broadcast.RequiredModel(), in,
		netsim.Options{Topo: topo}); err == nil {
		t.Error("topology/network node mismatch must fail")
	}
	if _, err := netsim.New(transducer.Network{}, tr, pol, core.Broadcast.RequiredModel(), in,
		netsim.Options{}); err == nil {
		t.Error("empty network must fail")
	}

	for _, r := range []netsim.Routing{netsim.RouteBroadcast, netsim.RouteNeighbors} {
		got, err := netsim.ParseRouting(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRouting round trip %v: got %v, err %v", r, got, err)
		}
	}
	if _, err := netsim.ParseRouting("carrier-pigeon"); err == nil {
		t.Error("ParseRouting accepted an unknown mode")
	}
}

// TestMaxEventsBound: an unreasonably small event budget must abort
// with ErrNoQuiescence rather than loop.
func TestMaxEventsBound(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 32, 2)
	s := buildTopoSim(t, topo, sixGraph(), netsim.Options{MaxEvents: 10})
	if _, err := s.Run(); !errors.Is(err, transducer.ErrNoQuiescence) {
		t.Fatalf("want ErrNoQuiescence, got %v", err)
	}
}

// TestBoundCountsActivations: the F1 and F2 forms (absence on NoLoop,
// domain-request on QTC) broadcast ≈ n³ messages on n nodes, so a bound
// that counted arrivals gave up on a 32-node star that quiesces after a
// few hundred activations. The bound counts activations and crashes:
// at its default both runs quiesce on Q(I), with more arrivals than
// the whole default bound.
func TestBoundCountsActivations(t *testing.T) {
	const n = 32
	topo := generate.MustTopology(generate.TopoStar, n, 1)
	net := netsim.NetworkOf(topo)
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d) E(d,e)`)
	for _, fx := range fixtures() {
		if fx.s != core.Absence && fx.s != core.DomainRequest {
			continue
		}
		t.Run(fx.name, func(t *testing.T) {
			want, err := fx.q.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := netsim.New(net, core.MustBuild(fx.s, fx.q), fx.pol(net), fx.s.RequiredModel(), in,
				netsim.Options{Topo: topo, Seed: 1, Want: want})
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(want) || len(s.WrongFacts) > 0 || !s.Conserved() {
				t.Fatalf("output %v (want %v), wrong facts %v, conserved %v", out, want, s.WrongFacts, s.Conserved())
			}
			if bound := 10000 + netsim.DefaultMaxEventsPerNode*n; s.Events() <= bound {
				t.Fatalf("%d events, within the default bound %d: the run no longer tests what is counted", s.Events(), bound)
			}
		})
	}
}

// TestPublishTo: the run's counters land in the registry under the
// netsim.* vocabulary.
func TestPublishTo(t *testing.T) {
	topo := generate.MustTopology(generate.TopoStar, 16, 4)
	s := buildTopoSim(t, topo, sixGraph(), netsim.Options{})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.PublishTo(reg)
	if reg.Counter(obs.NetsimEvents).Value() != int64(s.Events()) {
		t.Fatal("netsim.events counter not published")
	}
	if reg.Counter(obs.NetsimSchedOps).Value() != int64(s.SchedOps()) {
		t.Fatal("netsim.sched_ops counter not published")
	}
	if reg.Gauge(obs.NetsimHeapMax).Value() != int64(s.HeapMax()) {
		t.Fatal("netsim.heap_max gauge not published")
	}
}
