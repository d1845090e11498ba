package core

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// The Theorem 4.3 strategy, specialized to the NoLoop query and
// written ENTIRELY in stratified Datalog¬ — the shape of transducer
// the declarative-networking literature intends. The completeness
// check ("every candidate fact over MyAdom is known present or known
// absent") becomes a universally quantified negation, expressed with
// the Bad-marker idiom; absences are derived from the policyR system
// relation exactly as in the proof.
func declarativeNoLoopTransducer(t *testing.T) *transducer.Transducer {
	t.Helper()
	schema := transducer.Schema{
		In:  fact.MustSchema(map[string]int{"E": 2}),
		Out: fact.MustSchema(map[string]int{"O": 1}),
		Msg: fact.MustSchema(map[string]int{"F": 2, "A": 2, "H": 1}),
		Mem: fact.MustSchema(map[string]int{
			"GotF": 2, "GotA": 2, "GotH": 1,
			"SentF": 2, "SentA": 2, "SentH": 1,
		}),
	}
	tr, err := transducer.DatalogTransducer(schema,
		// Qout — evaluate NoLoop on the known fragment, gated by
		// completeness: Bad(w) marks every known value while any
		// candidate pair over MyAdom is neither known present nor
		// known absent.
		`Kn(x,y)  :- E(x,y).
		 Kn(x,y)  :- F(x,y).
		 Kn(x,y)  :- GotF(x,y).
		 Ab(x,y)  :- A(x,y).
		 Ab(x,y)  :- GotA(x,y).
		 Ab(x,y)  :- Policy_E(x,y), !E(x,y).
		 Res(x,y) :- Kn(x,y).
		 Res(x,y) :- Ab(x,y).
		 Bad(w)   :- MyAdom(a), MyAdom(b), !Res(a,b), MyAdom(w).
		 Val(x)   :- Kn(x,y).
		 Val(y)   :- Kn(x,y).
		 Loop(x)  :- Kn(x,x).
		 O(x)     :- Val(x), !Loop(x), !Bad(x).`,
		// Qins — persist deliveries and own detections; mark sends.
		`GotF(x,y)  :- F(x,y).
		 GotA(x,y)  :- A(x,y).
		 GotA(x,y)  :- Policy_E(x,y), !E(x,y).
		 GotH(v)    :- H(v).
		 SentF(x,y) :- E(x,y).
		 SentA(x,y) :- Policy_E(x,y), !E(x,y).
		 SentH(n)   :- Id(n).`,
		// Qdel — nothing.
		``,
		// Qsnd — forward local facts, announce detected absences and
		// the node's own identifier, each once.
		`F(x,y) :- E(x,y), !SentF(x,y).
		 A(x,y) :- Policy_E(x,y), !E(x,y), !SentA(x,y).
		 H(n)   :- Id(n), !SentH(n).`,
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDeclarativeAbsenceStrategyNoLoop(t *testing.T) {
	tr := declarativeNoLoopTransducer(t)
	q := queries.NoLoop()
	net := transducer.MustNetwork("n1", "n2", "n3")
	inputs := []*fact.Instance{
		fact.MustParseInstance(`E(a,b) E(a,a)`),
		fact.MustParseInstance(`E(a,b) E(b,c) E(c,c)`),
		fact.NewInstance(),
	}
	policies := map[string]transducer.Policy{
		"hash":    transducer.HashPolicy(net),
		"random7": transducer.RandomPolicy(net, 7),
		"oneNode": transducer.AllToNode("n2"),
	}
	for _, in := range inputs {
		want, err := q.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for name, pol := range policies {
			v, _, err := transducer.ExploreSchedules(net, tr, pol, transducer.PolicyAwareNoAll, in, want,
				transducer.ExploreOptions{Seeds: 3})
			if err != nil || v != nil {
				t.Errorf("declarative absence strategy, %s on %v: violation %v, error %v", name, in, v, err)
			}
		}
	}
}

// The declarative strategy has the same Definition 3 witness as the
// generic Go implementation: under the ideal all-facts-at-one-node
// policy the answer appears with heartbeats only.
func TestDeclarativeAbsenceCoordinationFree(t *testing.T) {
	tr := declarativeNoLoopTransducer(t)
	q := queries.NoLoop()
	in := fact.MustParseInstance(`E(a,b) E(a,a)`)
	want, err := q.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	net := transducer.MustNetwork("n1", "n2")
	ok, err := transducer.CoordinationFreeWitness(net, tr, transducer.AllToNode("n1"),
		transducer.PolicyAwareNoAll, in, want, "n1", 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("declarative absence strategy lacks a heartbeat-only witness")
	}
}

// Message behavior matches the generic Go implementation of the same
// strategy on the same workload.
func TestDeclarativeMatchesGenericAbsence(t *testing.T) {
	q := queries.NoLoop()
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,c)`)
	net := transducer.MustNetwork("n1", "n2")
	pol := transducer.HashPolicy(net)

	decl := declarativeNoLoopTransducer(t)
	simD, err := transducer.NewSimulation(net, decl, pol, transducer.PolicyAwareNoAll, in)
	if err != nil {
		t.Fatal(err)
	}
	outD, err := simD.RunToQuiescence(64)
	if err != nil {
		t.Fatal(err)
	}

	generic := MustBuild(Absence, q)
	simG, err := transducer.NewSimulation(net, generic, pol, Absence.RequiredModel(), in)
	if err != nil {
		t.Fatal(err)
	}
	outG, err := simG.RunToQuiescence(64)
	if err != nil {
		t.Fatal(err)
	}

	if !outD.Equal(outG) {
		t.Errorf("declarative %v != generic %v", outD, outG)
	}
}
