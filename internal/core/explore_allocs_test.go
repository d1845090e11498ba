package core

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// exploreChunk is one chunk of the explorer's fault exploration, the
// shape of explore-faults' op2: four seeded fault plans for a
// non-monotone strategy on the 3-node network and the five-edge graph
// of the X1–X3 rows, without the deterministic schedule families.
func exploreChunk(s Strategy, q monotone.Query, pol func(transducer.Network) transducer.Policy) func() transducer.ExploreStats {
	net := transducer.MustNetwork("n1", "n2", "n3")
	in := fact.MustParseInstance(`E(x1,x2) E(x2,x0) E(x0,x1) E(x3,x3) E(x3,x4)`)
	opts := transducer.ExploreOptions{Seeds: 4, BaseSeed: 100001, Faults: FaultConfigFor(s), SkipStarvation: true, SkipAdversary: true}
	p := pol(net)
	return func() transducer.ExploreStats {
		v, st, err := ExploreStrategy(s, q, net, p, in, opts)
		if v != nil {
			panic(v)
		}
		if err != nil {
			panic(err)
		}
		return st
	}
}

// TestExploreAllocsPerMessage pins the objects an explored schedule
// allocates per delivered message for the two non-monotone strategies:
// the policy asks, sends, fault rolls, buffer walks and deliveries of
// the tick engine, plus each schedule's clone, build and verdict. A
// message is a row of interned ids from send to delivery and a policy
// ask an id lookup, so neither builds a Fact, a key string or a sorted
// copy per message. The parent figures are this test's reading from
// before (2.08 and 2.81 after).
func TestExploreAllocsPerMessage(t *testing.T) {
	guided := func(net transducer.Network) transducer.Policy {
		return transducer.DomainGuided(transducer.HashAssignment(net))
	}
	for _, c := range []struct {
		name        string
		run         func() transducer.ExploreStats
		pin, parent float64
	}{
		{"absence", exploreChunk(Absence, queries.NoLoop(), transducer.HashPolicy), 3.0, 3.80},
		{"domain-request", exploreChunk(DomainRequest, queries.ComplementTC(), guided), 3.0, 4.30},
	} {
		delivered := float64(c.run().Sim.MessagesDelivered)
		per := testing.AllocsPerRun(5, func() { c.run() }) / delivered
		t.Logf("%s: %.2f objects per delivered message (%v delivered)", c.name, per, delivered)
		if per > c.pin {
			t.Errorf("%s: %.2f objects per delivered message, pinned at %v (parent: %v)", c.name, per, c.pin, c.parent)
		}
	}
}
