package core

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// Exhaustive-schedule safety: for a query in the strategy's class, NO
// schedule (up to the explored depth, heartbeat or deliver-all at any
// node) ever yields an output fact outside Q(I). This is the "no wrong
// outputs in any run" half of computing a query, checked by model
// exploration rather than sampling.
func TestExploreStrategySafety(t *testing.T) {
	net := transducer.MustNetwork("n1", "n2")
	graph := fact.MustParseInstance(`E(a,b) E(b,a)`)
	cases := []struct {
		name string
		s    Strategy
		q    monotone.Query
		pol  transducer.Policy
	}{
		{"broadcast/TC", Broadcast, queries.TC(), transducer.HashPolicy(net)},
		{"absence/NoLoop", Absence, queries.NoLoop(), transducer.HashPolicy(net)},
		{"domainreq/QTC", DomainRequest, queries.ComplementTC(), transducer.DomainGuided(transducer.HashAssignment(net))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.q.Eval(graph)
			if err != nil {
				t.Fatal(err)
			}
			tr := MustBuild(c.s, c.q)
			v, err := transducer.Explore(net, tr, c.pol, c.s.RequiredModel(), graph, want, 4)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Errorf("unsafe schedule found: %v", v)
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
	v, err := transducer.Explore(net, tr, pol, Absence.RequiredModel(), in, want, 2)
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
