package core

import (
	"fmt"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// evalCentral computes the reference answer Q(I).
func evalCentral(t *testing.T, q monotone.Query, in *fact.Instance) *fact.Instance {
	t.Helper()
	out, err := q.Eval(in)
	if err != nil {
		t.Fatalf("central evaluation of %s: %v", q.Name(), err)
	}
	return out
}

// networksUnderTest returns networks of 1, 2 and 3 nodes.
func networksUnderTest() []transducer.Network {
	return []transducer.Network{
		transducer.MustNetwork("n1"),
		transducer.MustNetwork("n1", "n2"),
		transducer.MustNetwork("n1", "n2", "n3"),
	}
}

// generalPolicies returns representative non-domain-guided policies.
func generalPolicies(net transducer.Network) map[string]transducer.Policy {
	return map[string]transducer.Policy{
		"hash":      transducer.HashPolicy(net),
		"firstattr": transducer.FirstAttrPolicy(net),
		"replicate": transducer.ReplicateAll(net),
		"oneNode":   transducer.AllToNode(net[0]),
	}
}

// guidedPolicies returns representative domain-guided policies.
func guidedPolicies(net transducer.Network) map[string]transducer.Policy {
	return map[string]transducer.Policy{
		"hashGuided": transducer.DomainGuided(transducer.HashAssignment(net)),
		"oneGuided":  transducer.DomainGuided(transducer.AssignAllTo(net[0])),
	}
}

var testGraphs = []*fact.Instance{
	fact.NewInstance(),
	fact.MustParseInstance(`E(a,b)`),
	fact.MustParseInstance(`E(a,b) E(b,c) E(c,d)`),
	fact.MustParseInstance(`E(a,b) E(b,a) E(c,c)`),
	generate.DisjointUnion(generate.Cycle("p", 3), generate.Path("q", 2)),
}

// F0: the broadcast strategy computes monotone queries on every
// network and policy.
func TestBroadcastComputesMonotone(t *testing.T) {
	q := queries.TC()
	for _, in := range testGraphs {
		want := evalCentral(t, q, in)
		for _, net := range networksUnderTest() {
			for name, pol := range generalPolicies(net) {
				res, err := Compute(Broadcast, q, net, pol, in, 0)
				if err != nil {
					t.Fatalf("net=%d pol=%s: %v", len(net), name, err)
				}
				if !res.Output.Equal(want) {
					t.Errorf("net=%d pol=%s in=%v: got %v, want %v", len(net), name, in, res.Output, want)
				}
			}
		}
	}
}

// Negative: broadcast is wrong beyond M — NoLoop ∈ Mdistinct \ M
// produces a wrong, never-retracted fact when the self-loop arrives
// after the vertex was first seen.
func TestBroadcastFailsBeyondM(t *testing.T) {
	q := queries.NoLoop()
	in := fact.MustParseInstance(`E(a,b) E(a,a)`)
	want := evalCentral(t, q, in) // {O(b)}
	net := transducer.MustNetwork("n1", "n2")
	// Split so that n1 sees E(a,b) but not E(a,a).
	pol := transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
		if f.Equal(fact.New("E", "a", "a")) {
			return []transducer.NodeID{"n2"}
		}
		return []transducer.NodeID{"n1"}
	})
	res, err := Compute(Broadcast, q, net, pol, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Equal(want) {
		t.Fatal("broadcast unexpectedly computed a non-monotone query correctly; the negative witness is broken")
	}
	if !res.Output.Has(fact.New("O", "a")) {
		t.Errorf("expected the premature wrong fact O(a); got %v", res.Output)
	}
}

// F1 (Theorem 4.3): the absence strategy computes Mdistinct queries on
// every network and every policy.
func TestAbsenceComputesMdistinct(t *testing.T) {
	for _, q := range []monotone.Query{queries.NoLoop(), queries.TC()} {
		for _, in := range testGraphs {
			want := evalCentral(t, q, in)
			for _, net := range networksUnderTest() {
				for name, pol := range generalPolicies(net) {
					res, err := Compute(Absence, q, net, pol, in, 0)
					if err != nil {
						t.Fatalf("%s net=%d pol=%s: %v", q.Name(), len(net), name, err)
					}
					if !res.Output.Equal(want) {
						t.Errorf("%s net=%d pol=%s in=%v: got %v, want %v", q.Name(), len(net), name, in, res.Output, want)
					}
				}
			}
		}
	}
}

// Negative: the absence strategy is wrong beyond Mdistinct. QTC is in
// Mdisjoint \ Mdistinct; under a policy that makes one node complete
// on a strict sub-domain it emits O(b,a) although b reaches a through
// the rest of the graph.
func TestAbsenceFailsBeyondMdistinct(t *testing.T) {
	q := queries.ComplementTC()
	in := fact.MustParseInstance(`E(a,b) E(b,x) E(x,a)`)
	want := evalCentral(t, q, in)
	net := transducer.MustNetwork("n1", "n2")
	// n1 is responsible for every fact over {a, b, n1}; the rest go to n2.
	over := fact.NewValueSet("a", "b", "n1")
	pol := transducer.PolicyFunc(func(f fact.Fact) []transducer.NodeID {
		if f.ADom().Minus(over).Equal(fact.NewValueSet()) {
			return []transducer.NodeID{"n1"}
		}
		return []transducer.NodeID{"n2"}
	})
	res, err := Compute(Absence, q, net, pol, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Equal(want) {
		t.Fatal("absence strategy unexpectedly computed QTC correctly; the negative witness is broken")
	}
	if !res.Output.Has(fact.New("O", "b", "a")) {
		t.Errorf("expected premature wrong fact O(b,a); got %v vs want %v", res.Output, want)
	}
}

// F2 (Theorem 4.4): the domain-request strategy computes Mdisjoint
// queries under every domain-guided policy — including the
// non-monotone QTC and the paper's headline win-move query.
func TestDomainRequestComputesMdisjoint(t *testing.T) {
	for _, q := range []monotone.Query{queries.ComplementTC(), queries.TC(), queries.NoLoop()} {
		for _, in := range testGraphs {
			want := evalCentral(t, q, in)
			for _, net := range networksUnderTest() {
				for name, pol := range guidedPolicies(net) {
					res, err := Compute(DomainRequest, q, net, pol, in, 0)
					if err != nil {
						t.Fatalf("%s net=%d pol=%s: %v", q.Name(), len(net), name, err)
					}
					if !res.Output.Equal(want) {
						t.Errorf("%s net=%d pol=%s in=%v: got %v, want %v", q.Name(), len(net), name, in, res.Output, want)
					}
				}
			}
		}
	}
}

// The headline result: win-move is computed coordination-free under
// domain guidance.
func TestDomainRequestWinMove(t *testing.T) {
	q := queries.WinMove()
	games := []*fact.Instance{
		fact.MustParseInstance(`Move(a,b) Move(b,c)`),
		fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c)`),
		fact.MustParseInstance(`Move(a,b) Move(b,a)`),
		generate.DisjointUnion(
			fact.MustParseInstance(`Move(a,b) Move(b,c)`),
			fact.MustParseInstance(`Move(x,y)`),
		),
	}
	for _, in := range games {
		want := evalCentral(t, q, in)
		for _, net := range networksUnderTest() {
			for name, pol := range guidedPolicies(net) {
				res, err := Compute(DomainRequest, q, net, pol, in, 0)
				if err != nil {
					t.Fatalf("net=%d pol=%s: %v", len(net), name, err)
				}
				if !res.Output.Equal(want) {
					t.Errorf("net=%d pol=%s in=%v: got %v, want %v", len(net), name, in, res.Output, want)
				}
			}
		}
	}
}

// The three-valued win-move classification (Won/Lost/Drawn) also runs
// coordination-free under domain guidance.
func TestDomainRequestWinMoveThreeValued(t *testing.T) {
	q := queries.WinMoveThreeValued()
	in := fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c) Move(d,e)`)
	want := evalCentral(t, q, in)
	net := transducer.MustNetwork("n1", "n2")
	pol := transducer.DomainGuided(transducer.HashAssignment(net))
	res, err := Compute(DomainRequest, q, net, pol, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(want) {
		t.Errorf("three-valued distributed %v != central %v", res.Output, want)
	}
	ok, err := VerifyCoordinationFree(DomainRequest, q, net, in)
	if err != nil || !ok {
		t.Errorf("three-valued coordination-free witness: ok=%v err=%v", ok, err)
	}
}

// Negative: the domain-request strategy is wrong beyond Mdisjoint.
// The triangle query (∈ C \ Mdisjoint) emits the local triangle at a
// node that cannot know about the disjoint second triangle.
func TestDomainRequestFailsBeyondMdisjoint(t *testing.T) {
	q := queries.TrianglesUnlessTwoDisjoint()
	in := generate.DisjointUnion(generate.Triangle("a", "b", "c"), generate.Triangle("x", "y", "z"))
	want := evalCentral(t, q, in) // empty: two disjoint triangles exist
	if !want.Empty() {
		t.Fatal("setup: expected empty reference output")
	}
	net := transducer.MustNetwork("n1", "n2")
	first := fact.NewValueSet("a", "b", "c")
	alpha := transducer.AssignFunc(func(v fact.Value) []transducer.NodeID {
		if first.Has(v) {
			return []transducer.NodeID{"n1"}
		}
		return []transducer.NodeID{"n2"}
	})
	// A fair run can deliver n2's OK before n2's value announcements;
	// in that window n1 is complete over {n1, a, b, c} and emits its
	// local triangle although the full input has two disjoint ones.
	tr := MustBuild(DomainRequest, q)
	sim, err := transducer.NewSimulation(net, tr, transducer.DomainGuided(alpha), DomainRequest.RequiredModel(), in)
	if err != nil {
		t.Fatal(err)
	}
	// n1 announces and requests an OK for its own identifier.
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	// n2 reads everything and (among others) replies OK(n1, n1).
	if _, err := sim.Deliver("n2"); err != nil {
		t.Fatal(err)
	}
	// Deliver only the OK to n1 — the announcements stay buffered.
	if _, err := sim.DeliverWhere("n1", func(f fact.Fact) bool { return f.Rel() == "Xok" }); err != nil {
		t.Fatal(err)
	}
	if sim.Output().Empty() {
		t.Fatal("expected wrong (premature) triangle outputs for a query outside Mdisjoint")
	}
	// The wrong facts are never retracted: the completed fair run
	// differs from Q(I) = ∅.
	final, err := sim.RunToQuiescence(64)
	if err != nil {
		t.Fatal(err)
	}
	if final.Empty() {
		t.Error("wrong outputs disappeared; outputs must be monotone")
	}
}

// Confluence: random runs agree with round-robin runs for all
// strategies.
func TestStrategiesConfluent(t *testing.T) {
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d)`)
	net := transducer.MustNetwork("n1", "n2", "n3")
	cases := []struct {
		s   Strategy
		q   monotone.Query
		pol transducer.Policy
	}{
		{Broadcast, queries.TC(), transducer.HashPolicy(net)},
		{Absence, queries.NoLoop(), transducer.HashPolicy(net)},
		{DomainRequest, queries.ComplementTC(), transducer.DomainGuided(transducer.HashAssignment(net))},
	}
	for _, c := range cases {
		ref, err := Compute(c.s, c.q, net, c.pol, in, 0)
		if err != nil {
			t.Fatalf("%v: %v", c.s, err)
		}
		for seed := int64(0); seed < 5; seed++ {
			res, err := ComputeRun(c.s, c.q, net, c.pol, in, RunConfig{Seed: seed, RandomSteps: 20})
			if err != nil {
				t.Fatalf("%v seed %d: %v", c.s, seed, err)
			}
			if !res.Output.Equal(ref.Output) {
				t.Errorf("%v seed %d: random run output %v != %v", c.s, seed, res.Output, ref.Output)
			}
		}
	}
}

// Definition 3 witnesses: each strategy has a heartbeat-only run under
// its ideal policy producing the full answer.
func TestStrategiesCoordinationFree(t *testing.T) {
	cases := []struct {
		s Strategy
		q monotone.Query
	}{
		{Broadcast, queries.TC()},
		{Absence, queries.NoLoop()},
		{Absence, queries.TC()},
		{DomainRequest, queries.ComplementTC()},
		{DomainRequest, queries.WinMove()},
	}
	for _, c := range cases {
		var in *fact.Instance
		if c.q.InputSchema().Has("Move") {
			in = fact.MustParseInstance(`Move(a,b) Move(b,c)`)
		} else {
			in = fact.MustParseInstance(`E(a,b) E(b,c)`)
		}
		for _, net := range networksUnderTest() {
			ok, err := VerifyCoordinationFree(c.s, c.q, net, in)
			if err != nil {
				t.Fatalf("%v %s net=%d: %v", c.s, c.q.Name(), len(net), err)
			}
			if !ok {
				t.Errorf("%v %s net=%d: no heartbeat-only witness", c.s, c.q.Name(), len(net))
			}
		}
	}
}

// Theorem 4.5 (executable side): none of the strategies reads All —
// they are declared to run in All-free models — and they still compute
// their queries there (checked above, since RequiredModel never shows
// All). Here we additionally check the models explicitly.
func TestStrategiesAllFree(t *testing.T) {
	if Broadcast.RequiredModel().ShowAll || Absence.RequiredModel().ShowAll || DomainRequest.RequiredModel().ShowAll {
		t.Error("a strategy claims to need the All relation, contradicting Theorem 4.5")
	}
	if Broadcast.RequiredModel() != (transducer.Oblivious) {
		t.Error("broadcast should be oblivious (neither Id nor All)")
	}
}

func TestStrategyMetadata(t *testing.T) {
	if Broadcast.Class() != monotone.M || Absence.Class() != monotone.MDistinct || DomainRequest.Class() != monotone.MDisjoint {
		t.Error("strategy/class mapping wrong")
	}
	for _, s := range []Strategy{Broadcast, Absence, DomainRequest} {
		if s.String() == "" {
			t.Error("empty strategy name")
		}
		pol := s.idealPolicy("n1")
		f := fact.New("E", "u", "v")
		nodes := pol.Nodes(f)
		if len(nodes) != 1 || nodes[0] != "n1" {
			t.Errorf("%v ideal policy nodes = %v", s, nodes)
		}
	}
	// The DomainRequest ideal policy must be domain-guided.
	net := transducer.MustNetwork("n1", "n2")
	if !transducer.IsDomainGuidedOn(DomainRequest.idealPolicy("n1"), fact.GraphSchema(), []fact.Value{"a", "b", "n1"}) {
		t.Error("DomainRequest ideal policy is not domain-guided")
	}
	_ = net
}

func TestBuildRejectsNamespaceCollision(t *testing.T) {
	q := monotone.NewFunc("bad", fact.MustSchema(map[string]int{"Xf_E": 2}), fact.MustSchema(map[string]int{"O": 2}),
		func(i *fact.Instance) (*fact.Instance, error) { return fact.NewInstance(), nil })
	if _, err := Build(Broadcast, q); err == nil {
		t.Error("internal namespace collision accepted")
	}
}

// Metrics sanity: replication sends nothing new on a single node;
// multi-node runs send messages.
func TestComputeMetrics(t *testing.T) {
	q := queries.TC()
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	single, err := Compute(Broadcast, q, transducer.MustNetwork("n1"), transducer.AllToNode("n1"), in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if single.Metrics.MessagesSent != 0 {
		t.Errorf("single-node run sent %d messages", single.Metrics.MessagesSent)
	}
	multi, err := Compute(Broadcast, q, transducer.MustNetwork("n1", "n2"), transducer.HashPolicy(transducer.MustNetwork("n1", "n2")), in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Metrics.MessagesSent == 0 {
		t.Error("two-node run sent no messages")
	}
}

func TestComputeLargerRandomInputs(t *testing.T) {
	// Exercise all three strategies on a slightly larger random graph.
	net := transducer.MustNetwork("n1", "n2", "n3")
	in := fact.NewInstance()
	for k := 0; k < 8; k++ {
		in.Add(fact.New("E",
			fact.Value(fmt.Sprintf("v%d", (k*3)%5)),
			fact.Value(fmt.Sprintf("v%d", (k*7+1)%5))))
	}
	cases := []struct {
		s   Strategy
		q   monotone.Query
		pol transducer.Policy
	}{
		{Broadcast, queries.TC(), transducer.HashPolicy(net)},
		{Absence, queries.NoLoop(), transducer.FirstAttrPolicy(net)},
		{DomainRequest, queries.ComplementTC(), transducer.DomainGuided(transducer.HashAssignment(net))},
	}
	for _, c := range cases {
		want := evalCentral(t, c.q, in)
		res, err := Compute(c.s, c.q, net, c.pol, in, 0)
		if err != nil {
			t.Fatalf("%v: %v", c.s, err)
		}
		if !res.Output.Equal(want) {
			t.Errorf("%v: got %v, want %v", c.s, res.Output, want)
		}
	}
}
