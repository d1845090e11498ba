package transducer_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fact"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// TestNeighbourRoutedPrimitives drives every lockstep primitive on a
// machine whose links are given — the path n1–n2–n3–n4 — rather than
// the paper's broadcast: sends reach link neighbours only, the relaying
// gossip strategy still converges to Q(I) under duplication, delay and
// a stall, and a crashed node is refilled from its neighbours' send
// logs and nobody else's.
func TestNeighbourRoutedPrimitives(t *testing.T) {
	net := transducer.MustNetwork("n1", "n2", "n3", "n4")
	path := [][]int32{{1}, {0, 2}, {1, 3}, {2}}
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a)`)
	want, err := queries.TC().Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.MustBuild(core.Gossip, queries.TC())
	sim, err := transducer.NewSimulationOver(net, tr, transducer.AllToNode("n1"), core.Gossip.RequiredModel(), in, path)
	if err != nil {
		t.Fatal(err)
	}
	sim.Want = want

	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if sim.Buffered("n2") != in.Len() || sim.Buffered("n3") != 0 || sim.Buffered("n4") != 0 {
		t.Fatalf("n1's sends left its links: buffered n2=%d n3=%d n4=%d",
			sim.Buffered("n2"), sim.Buffered("n3"), sim.Buffered("n4"))
	}

	plan, err := transducer.ParseFaultPlan("dup=0.3,delay=0.3:3,stall=n3@3-6", 5)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(plan)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 40; step++ {
		x := net[rng.Intn(len(net))]
		switch rng.Intn(5) {
		case 0:
			_, err = sim.Heartbeat(x)
		case 1:
			_, err = sim.Deliver(x)
		case 2:
			_, err = transducer.DeliverRandom(sim, x, rng)
		case 3:
			_, err = sim.DeliverWhere(x, func(fact.Fact) bool { return rng.Intn(2) == 0 })
		default:
			_, err = sim.DeliverWhere(x, fact.NewInstance(sim.BufferedFacts(x)...).Has)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := sim.RunToQuiescence(100)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) || len(sim.WrongFacts) != 0 || !sim.Conserved() {
		t.Fatalf("routed run: output %v, want %v; wrong facts %v; conserved %v", out, want, sim.WrongFacts, sim.Conserved())
	}

	// Every node has relayed every fact by now, so a broadcast recovery
	// would refill n4 three times over; over the path only n3 resends.
	sim.SetFaults(&transducer.FaultPlan{Crashes: []transducer.Crash{{Node: "n4", At: sim.Clock() + 1}}})
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if !sim.State("n4").Empty() {
		t.Fatal("crash kept n4's volatile state")
	}
	if got := sim.Buffered("n4"); got != in.Len() || got != len(sim.BufferedFacts("n4")) || got != sim.RunMetrics().MessagesRetransmitted {
		t.Fatalf("n4 refilled with %d copies of %d facts (%d retransmitted), want %d from n3 alone",
			got, len(sim.BufferedFacts("n4")), sim.RunMetrics().MessagesRetransmitted, in.Len())
	}
	if out, err = sim.RunToQuiescence(100); err != nil || !out.Equal(want) || !sim.Conserved() {
		t.Fatalf("recovery run: output %v, err %v, conserved %v", out, err, sim.Conserved())
	}

	if _, err := transducer.NewSimulationOver(net, tr, transducer.AllToNode("n1"), core.Gossip.RequiredModel(), in, path[:2]); err == nil {
		t.Error("recipient lists for the wrong number of nodes must fail")
	}
}
