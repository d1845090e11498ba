package core

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// Exhaustive safety: for a query in the strategy's class, NO
// configuration reachable by heartbeat and deliver-all transitions
// yields an output fact outside Q(I), and every run ends at Q(I). This
// is "Π computes Q" checked on the closed configuration graph rather
// than by sampling; the walks' sizes are pinned.
func TestExploreStrategySafety(t *testing.T) {
	graph := fact.MustParseInstance(`E(a,b) E(b,a)`)
	type walk struct {
		in             *fact.Instance
		nodes, configs int
	}
	cases := []struct {
		name  string
		s     Strategy
		q     monotone.Query
		walks []walk
	}{
		{"broadcast/TC", Broadcast, queries.TC(), []walk{{graph, 2, 3}, {graph, 3, 21}}},
		{"absence/NoLoop", Absence, queries.NoLoop(), []walk{{graph, 2, 9}, {graph, 3, 213}}},
		{"domainreq/QTC", DomainRequest, queries.ComplementTC(), []walk{{graph, 2, 21}, {graph, 3, 1595}, {fact.MustParseInstance(`E(a,b)`), 3, 1850}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := MustBuild(c.s, c.q)
			for _, w := range c.walks {
				want, err := c.q.Eval(w.in)
				if err != nil {
					t.Fatal(err)
				}
				net := transducer.MustNetwork("n1", "n2", "n3")[:w.nodes]
				pol := transducer.HashPolicy(net)
				if c.s == DomainRequest {
					pol = transducer.DomainGuided(transducer.HashAssignment(net))
				}
				v, configs, err := transducer.Explore(net, tr, pol, c.s.RequiredModel(), w.in, want)
				if err != nil || v != nil || configs != w.configs {
					t.Errorf("%d nodes on %v: violation %v, error %v, %d configurations, want %d", w.nodes, w.in, v, err, configs, w.configs)
				}
			}
		})
	}
}

// The exploration is discriminating: for a query OUTSIDE the
// strategy's class it finds the unsafe schedule automatically (here,
// the absence strategy on QTC — the Theorem 4.3 boundary).
func TestExploreFindsStrategyBoundary(t *testing.T) {
	q := queries.ComplementTC()
	in := fact.MustParseInstance(`E(a,b) E(b,x) E(x,a)`)
	want, err := q.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	net := transducer.MustNetwork("n1", "n2")
	over := fact.NewValueSet("a", "b", "n1")
	pol := transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
		if f.ADom().Minus(over).Equal(fact.NewValueSet()) {
			return []transducer.NodeID{"n1"}
		}
		return []transducer.NodeID{"n2"}
	})
	tr := MustBuild(Absence, q)
	v, _, err := transducer.Explore(net, tr, pol, Absence.RequiredModel(), in, want)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("explorer failed to find the premature-output schedule for a query outside Mdistinct")
	}
	// n1 holds E(a,b) alone and outputs its complement at its first
	// heartbeat; O(a,a) is the first of it in out(R).
	if v.Kind != transducer.WrongFact || v.Schedule != "n1:hb" || v.Step != 1 || !v.Bad.Equal(fact.New("O", "a", "a")) {
		t.Errorf("first violation = %v, want O(a,a) at step 1 of schedule n1:hb", v)
	}
}
