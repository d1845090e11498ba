package netsim_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// sixNodes is the fixture network the equivalence battery runs on.
func sixNodes() transducer.Network {
	return transducer.MustNetwork("n1", "n2", "n3", "n4", "n5", "n6")
}

func sixGraph() *fact.Instance {
	return fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) E(d,a) E(b,e)`)
}

// fixture is one (strategy, query, policy) combination; the set covers
// all four strategies on the six-node network.
type fixture struct {
	name string
	s    core.Strategy
	q    monotone.Query
	pol  func(transducer.Network) transducer.Policy
}

func fixtures() []fixture {
	hash := func(n transducer.Network) transducer.Policy { return transducer.HashPolicy(n) }
	guided := func(n transducer.Network) transducer.Policy {
		return transducer.DomainGuided(transducer.HashAssignment(n))
	}
	return []fixture{
		{"broadcast", core.Broadcast, queries.TC(), hash},
		{"gossip", core.Gossip, queries.TC(), hash},
		{"absence", core.Absence, queries.NoLoop(), hash},
		{"domainreq", core.DomainRequest, queries.ComplementTC(), guided},
	}
}

// buildPair constructs the one machine twice over identical
// components: bare, for the dense schedule (RunToQuiescence), and under
// the event scheduler (Run).
func buildPair(t *testing.T, fx fixture, plan *transducer.FaultPlan) (*transducer.Simulation, *netsim.Sim) {
	t.Helper()
	net := sixNodes()
	tr := core.MustBuild(fx.s, fx.q)
	pol := fx.pol(net)
	in := sixGraph()

	dense, err := transducer.NewSimulation(net, tr, pol, fx.s.RequiredModel(), in)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := netsim.New(net, tr, pol, fx.s.RequiredModel(), in, netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		dense.SetFaults(plan)
		ev.SetFaults(plan)
	}
	return dense, ev
}

func mustPlan(t *testing.T, spec string, seed int64) *transducer.FaultPlan {
	t.Helper()
	p, err := transducer.ParseFaultPlan(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEventRunMatchesTick: the event schedule must converge to the
// dense schedule's output on every fixture, clean and faulty.
func TestEventRunMatchesTick(t *testing.T) {
	for _, fx := range fixtures() {
		for _, pspec := range []string{"", "dup=0.2,delay=0.25:4,stall=n3@4-9,crash=n2@7,part=5-12:n1|n4"} {
			name := fx.name + "/clean"
			if pspec != "" {
				name = fx.name + "/faulty"
				if fx.s == core.DomainRequest {
					continue
				}
			}
			t.Run(name, func(t *testing.T) {
				var plan *transducer.FaultPlan
				if pspec != "" {
					plan = mustPlan(t, pspec, 42)
				}
				dense, ev := buildPair(t, fx, plan)
				want, err := dense.RunToQuiescence(200)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ev.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("event run diverged:\n got %v\nwant %v", got, want)
				}
				if !ev.Conserved() {
					m := ev.RunMetrics()
					t.Fatalf("conservation broken: sent=%d delivered=%d buffered=%d inflight=%d dropped=%d",
						m.MessagesSent, m.MessagesDelivered, ev.TotalBuffered(), ev.Inflight(), m.MessagesDropped)
				}
				if ev.SchedOps() == 0 || ev.Events() == 0 {
					t.Fatal("event scheduler accounted no work")
				}
			})
		}
	}

	// A machine stepped in lockstep past a scheduled crash and then
	// finished on the event scheduler has one fault clock: the crash
	// behind it is not replayed, by this Run or by a second one.
	t.Run("mixed/crash-behind-clock", func(t *testing.T) {
		fx := fixtures()[0]
		plan := mustPlan(t, "dup=0.2,delay=0.25:4,stall=n3@4-9,crash=n2@7,part=5-12:n1|n4", 42)
		dense, ev := buildPair(t, fx, plan)
		want, err := dense.RunToQuiescence(200)
		if err != nil {
			t.Fatal(err)
		}
		// Nine attempts: past the crash at 7, with the restarted n2's
		// resends still held behind the partition that heals at 12.
		for step := 0; step < 9; step++ {
			if _, err := ev.Deliver(sixNodes()[step%6]); err != nil {
				t.Fatal(err)
			}
		}
		if ev.RunMetrics().Crashes != 1 || ev.TotalHeld() == 0 {
			t.Fatalf("lockstep prefix: crashes %d, held %d; want 1, >0", ev.RunMetrics().Crashes, ev.TotalHeld())
		}
		for run := 1; run <= 2; run++ {
			got, err := ev.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || !ev.Conserved() {
				t.Fatalf("Run %d: output %v, want %v; conserved %v", run, got, want, ev.Conserved())
			}
			if c := ev.RunMetrics().Crashes; c != 1 {
				t.Fatalf("Run %d replayed the crash: Crashes = %d, want 1", run, c)
			}
		}
		if ev.Now() < 12 {
			t.Fatalf("held messages lost their release time: quiesced at %d, partition heals at 12", ev.Now())
		}
	})
}

// TestEventDeterminism: equal seeds yield byte-identical event
// streams; different seeds still converge to the same output.
func TestEventDeterminism(t *testing.T) {
	run := func(seed int64) (*fact.Instance, []byte) {
		net := sixNodes()
		tr := core.MustBuild(core.Gossip, queries.TC())
		ev, err := netsim.New(net, tr, transducer.HashPolicy(net), core.Gossip.RequiredModel(), sixGraph(),
			netsim.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ev.Observe(obs.NewSink(&buf))
		ev.SetFaults(mustPlan(t, "dup=0.3,delay=0.3:5,crash=n4@6", 21))
		out, err := ev.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out, buf.Bytes()
	}
	outA, streamA := run(77)
	outB, streamB := run(77)
	outC, streamC := run(78)
	if !bytes.Equal(streamA, streamB) {
		t.Fatal("equal seeds produced different event streams")
	}
	if !outA.Equal(outB) || !outA.Equal(outC) {
		t.Fatal("outputs depend on the tiebreak seed")
	}
	if bytes.Equal(streamA, streamC) {
		t.Fatal("different seeds produced identical streams (tiebreak not wired)")
	}
}
