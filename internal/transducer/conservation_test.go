package transducer

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
)

// Property test: across arbitrary interleavings of the delivery
// drivers with no faults injected, the message multiset is conserved —
// every sent (fact, recipient) pair is either delivered or still
// buffered, never lost or invented.
func TestMessageConservationRandomInterleavings(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, bigGraphIn())
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			x := net[rng.Intn(len(net))]
			switch rng.Intn(4) {
			case 0:
				_, err = sim.Heartbeat(x)
			case 1:
				_, err = sim.Deliver(x)
			case 2:
				_, err = sim.deliverRandom(x, rng)
			default:
				keep := rng.Intn(2) == 0
				_, err = sim.DeliverWhere(x, func(f fact.Fact) bool {
					keep = !keep
					return keep
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			m := sim.Metrics
			if m.MessagesSent != m.MessagesDelivered+sim.TotalBuffered() {
				t.Fatalf("seed %d step %d: sent %d != delivered %d + buffered %d",
					seed, step, m.MessagesSent, m.MessagesDelivered, sim.TotalBuffered())
			}
			if sim.totalHeld() != 0 || m.MessagesDropped != 0 || m.MessagesDuplicated != 0 {
				t.Fatalf("seed %d step %d: faultless run produced fault metrics: %+v", seed, step, m)
			}
		}
	}
}

// The conservation invariant extends to faulty runs: held and dropped
// messages are accounted for at every step.
func TestMessageConservationUnderFaults(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, bigGraphIn())
		if err != nil {
			t.Fatal(err)
		}
		sim.SetFaults(RandomFaultPlan(net, seed, DefaultFaultConfig()))
		for step := 0; step < 40; step++ {
			x := net[rng.Intn(len(net))]
			if rng.Intn(2) == 0 {
				_, err = sim.Deliver(x)
			} else {
				_, err = sim.deliverRandom(x, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			conserved(t, sim)
		}
	}
}

// Regression test: clone is a deep copy. Mutating the clone's buffers,
// state, held queues, send logs, or Metrics never aliases the parent.
func TestCloneIsDeepCopy(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(&FaultPlan{Seed: 3, DelayProb: 0.5, MaxDelay: 4})
	// Build up buffers, held messages and state.
	for _, x := range net {
		if _, err := sim.Heartbeat(x); err != nil {
			t.Fatal(err)
		}
	}
	before := struct {
		buffered, held int
		metrics        Metrics
		state          *fact.Instance
	}{sim.TotalBuffered(), sim.totalHeld(), sim.Metrics, sim.State("n2")}

	clone := sim.clone()
	// Drive the clone hard; crash it too.
	clone.SetFaults(&FaultPlan{Seed: 3, Crashes: []Crash{{Node: "n2", At: clone.Clock() + 1}}})
	for i := 0; i < 6; i++ {
		for _, x := range net {
			if _, err := clone.Deliver(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	clone.Metrics.MessagesSent += 1000

	if sim.TotalBuffered() != before.buffered || sim.totalHeld() != before.held {
		t.Errorf("clone mutation reached parent buffers: %d/%d, want %d/%d",
			sim.TotalBuffered(), sim.totalHeld(), before.buffered, before.held)
	}
	if sim.Metrics != before.metrics {
		t.Errorf("clone mutation reached parent metrics: %+v vs %+v", sim.Metrics, before.metrics)
	}
	if !sim.State("n2").Equal(before.state) {
		t.Errorf("clone mutation reached parent state")
	}
	if sim.Clock() == clone.Clock() {
		t.Errorf("clone clock did not advance independently")
	}
}

// A clone pair driven by equal seeds produces byte-identical traces —
// the fault layer keeps no hidden mutable randomness.
func TestClonePairEqualSeedsIdenticalTraces(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	base, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, bigGraphIn())
	if err != nil {
		t.Fatal(err)
	}
	base.SetFaults(RandomFaultPlan(net, 11, DefaultFaultConfig()))
	// Advance the base a little so the clones start mid-run.
	for _, x := range net {
		if _, err := base.Heartbeat(x); err != nil {
			t.Fatal(err)
		}
	}
	run := func(sim *Simulation) []byte {
		var buf bytes.Buffer
		sim.Observe(obs.NewStream(&buf))
		if err := sim.RandomPrefix(99, 30); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunToQuiescence(sim.RoundBound(60)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	c1, c2 := base.clone(), base.clone()
	t1, t2 := run(c1), run(c2)
	if !bytes.Equal(t1, t2) {
		t.Fatalf("equal-seed clone traces differ:\n--- clone 1 ---\n%s\n--- clone 2 ---\n%s", t1, t2)
	}
	if c1.Metrics != c2.Metrics {
		t.Fatalf("equal-seed clone metrics differ: %+v vs %+v", c1.Metrics, c2.Metrics)
	}
}
