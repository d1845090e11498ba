package core

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// These tests make the strictness of the model hierarchy operational:
// the absence strategy needs the policy relations (F0 ⊊ F1), and the
// domain-request strategy needs the policy to actually be domain
// guided (F1 ⊊ F2). Each test runs a strategy with its requirement
// removed and exhibits a wrong, never-retracted output.

// Without MyAdom and the policy relations (the original model of [13])
// the absence strategy cannot detect absences; its completeness check
// degenerates to "always complete" and it behaves like the broadcast
// strategy — wrong for NoLoop ∈ Mdistinct \ M.
func TestAbsenceNeedsPolicyAwareness(t *testing.T) {
	q := queries.NoLoop()
	in := fact.MustParseInstance(`E(a,b) E(a,a)`)
	want, err := q.Eval(in) // {O(b)}
	if err != nil {
		t.Fatal(err)
	}
	net := transducer.MustNetwork("n1", "n2")
	pol := transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
		if f.Equal(fact.New("E", "a", "a")) {
			return []transducer.NodeID{"n2"}
		}
		return []transducer.NodeID{"n1"}
	})
	tr := MustBuild(Absence, q)

	// In the proper policy-aware model the strategy is correct.
	sim, err := transducer.NewSimulation(net, tr, pol, Absence.RequiredModel(), in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunToQuiescence(64)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) {
		t.Fatalf("policy-aware run wrong: %v, want %v", out, want)
	}
	pinRun(t, "policy-aware", sim.Metrics, transducer.Metrics{Transitions: 6, Heartbeats: 3, MessagesSent: 18, MessagesDelivered: 18})

	// In the original model (Id + All only) it emits the premature O(a).
	sim, err = transducer.NewSimulation(net, tr, pol, transducer.Original, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err = sim.RunToQuiescence(64)
	if err != nil {
		t.Fatal(err)
	}
	if out.Equal(want) {
		t.Fatal("absence strategy unexpectedly correct without policy relations; necessity witness broken")
	}
	if out.String() != "{O(a), O(b)}" {
		t.Errorf("expected premature O(a) in the original model; got %v", out)
	}
	pinRun(t, "original", sim.Metrics, transducer.Metrics{Transitions: 6, Heartbeats: 4, MessagesSent: 4, MessagesDelivered: 4})
}

// pinRun compares a necessity run's counters with the values the
// four-query arm produced before the strategies had insert-only forms.
func pinRun(t *testing.T, run string, got, want transducer.Metrics) {
	t.Helper()
	if got != want {
		t.Errorf("%s run: metrics %+v, want %+v", run, got, want)
	}
}

// With a policy that is NOT domain guided, "Policy_E(a,a) visible"
// no longer implies "I hold every input fact containing a": a node can
// believe itself complete while missing facts, and the domain-request
// strategy emits wrong answers for QTC.
func TestDomainRequestNeedsDomainGuidance(t *testing.T) {
	q := queries.ComplementTC()
	in := fact.MustParseInstance(`E(a,b) E(b,a)`)
	want, err := q.Eval(in) // empty: the 2-cycle reaches everything
	if err != nil {
		t.Fatal(err)
	}
	if !want.Empty() {
		t.Fatal("setup: expected empty reference output")
	}
	net := transducer.MustNetwork("n1", "n2")
	// Diagonal facts over {a, b, n1} at n1 (so n1 believes it owns
	// those values), but the real fact E(b,a) lives at n2 only.
	pol := transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
		if f.Equal(fact.New("E", "b", "a")) {
			return []transducer.NodeID{"n2"}
		}
		return []transducer.NodeID{"n1"}
	})
	if transducer.IsDomainGuidedOn(pol, fact.GraphSchema(), []fact.Value{"a", "b", "n1"}) {
		t.Fatal("setup: policy should not be domain guided")
	}

	res, err := Compute(DomainRequest, q, net, pol, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Empty() {
		t.Fatal("domain-request strategy unexpectedly correct on a non-guided policy; necessity witness broken")
	}
	if res.Output.String() != "{O(a,a), O(b,a), O(b,b)}" {
		t.Errorf("expected premature complement facts; got %v", res.Output)
	}
	pinRun(t, "non-guided", res.Metrics, transducer.Metrics{Transitions: 10, Heartbeats: 5, MessagesSent: 18, MessagesDelivered: 18})
}
