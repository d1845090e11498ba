package transducer

import (
	"sync"
	"testing"

	"repro/internal/fact"
)

// echoTransducer outputs its local input facts relabeled O(a,b); no
// messages, no memory.
func echoTransducer() *Transducer {
	return &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"O": 2}),
			Msg: fact.Schema{},
			Mem: fact.Schema{},
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			out := fact.NewInstance()
			for _, f := range d.Rel("E") {
				out.Add(fact.New("O", f.Arg(0), f.Arg(1)))
			}
			return out, nil
		},
	}
}

// forwardTransducer broadcasts its local inputs once (Sent
// bookkeeping) and outputs every fact it has ever seen, locally or by
// message. On any policy and fair run, the final output is the full
// input relabeled.
func forwardTransducer() *Transducer {
	return &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"O": 2}),
			Msg: fact.MustSchema(map[string]int{"F": 2}),
			Mem: fact.MustSchema(map[string]int{"Seen": 2, "Sent": 2}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			out := fact.NewInstance()
			for _, rel := range []string{"E", "F", "Seen"} {
				for _, f := range d.Rel(rel) {
					out.Add(fact.New("O", f.Arg(0), f.Arg(1)))
				}
			}
			return out, nil
		},
		Ins: func(d *fact.Instance) (*fact.Instance, error) {
			ins := fact.NewInstance()
			for _, f := range d.Rel("E") {
				ins.Add(fact.New("Sent", f.Arg(0), f.Arg(1)))
			}
			for _, f := range d.Rel("F") {
				ins.Add(fact.New("Seen", f.Arg(0), f.Arg(1)))
			}
			return ins, nil
		},
		Snd: func(d *fact.Instance) (*fact.Instance, error) {
			snd := fact.NewInstance()
			for _, f := range d.Rel("E") {
				if !d.Has(fact.New("Sent", f.Arg(0), f.Arg(1))) {
					snd.Add(fact.New("F", f.Arg(0), f.Arg(1)))
				}
			}
			return snd, nil
		},
	}
}

var graphIn = fact.MustParseInstance(`E(a,b) E(b,c) E(c,d)`)

func wantO(in *fact.Instance) *fact.Instance {
	out := fact.NewInstance()
	for _, f := range in.Rel("E") {
		out.Add(fact.New("O", f.Arg(0), f.Arg(1)))
	}
	return out
}

func TestSimulationEcho(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	sim, err := NewSimulation(net, echoTransducer(), HashPolicy(net), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunToQuiescence(10)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantO(graphIn)) {
		t.Errorf("echo output = %v", out)
	}
	if sim.Metrics.MessagesSent != 0 {
		t.Errorf("echo sent %d messages", sim.Metrics.MessagesSent)
	}
}

func TestSimulationForwardAllPolicies(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	policies := map[string]Policy{
		"hash":      HashPolicy(net),
		"firstattr": FirstAttrPolicy(net),
		"guided":    DomainGuided(HashAssignment(net)),
		"replicate": ReplicateAll(net),
		"oneNode":   AllToNode("n2"),
	}
	for name, p := range policies {
		sim, err := NewSimulation(net, forwardTransducer(), p, Original, graphIn)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sim.RunToQuiescence(20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Equal(wantO(graphIn)) {
			t.Errorf("%s: output = %v", name, out)
		}
	}
}

// Confluence: random fair runs produce the same output as round-robin.
func TestSimulationConfluence(t *testing.T) {
	net := MustNetwork("n1", "n2")
	for seed := int64(0); seed < 10; seed++ {
		sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, graphIn)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RandomPrefix(seed, 15); err != nil {
			t.Fatal(err)
		}
		out, err := sim.RunToQuiescence(30)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(wantO(graphIn)) {
			t.Errorf("seed %d: output = %v", seed, out)
		}
	}
}

func TestSimulationEveryNodeOutputs(t *testing.T) {
	// With the forwarding transducer each individual node eventually
	// holds the full output locally.
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToQuiescence(20); err != nil {
		t.Fatal(err)
	}
	for _, x := range net {
		local := sim.State(x).Restrict(fact.MustSchema(map[string]int{"O": 2}))
		if !local.Equal(wantO(graphIn)) {
			t.Errorf("node %s local output = %v", x, local)
		}
	}
}

func TestSimulationMetrics(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToQuiescence(20); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics
	if m.Transitions == 0 || m.MessagesSent == 0 {
		t.Errorf("metrics not accumulated: %+v", m)
	}
	// Each of the 3 input facts is sent exactly once to the 1 other node.
	if m.MessagesSent != 3 {
		t.Errorf("MessagesSent = %d, want 3", m.MessagesSent)
	}
	if m.MessagesDelivered != 3 {
		t.Errorf("MessagesDelivered = %d, want 3", m.MessagesDelivered)
	}
}

func TestSystemFactsVisibility(t *testing.T) {
	// A transducer that copies its visible system facts into output.
	sysSpy := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"SawId": 1, "SawAll": 1, "SawAdom": 1, "SawPol": 2}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			out := fact.NewInstance()
			for _, f := range d.Rel(RelId) {
				out.Add(fact.New("SawId", f.Arg(0)))
			}
			for _, f := range d.Rel(RelAll) {
				out.Add(fact.New("SawAll", f.Arg(0)))
			}
			for _, f := range d.Rel(RelMyAdom) {
				out.Add(fact.New("SawAdom", f.Arg(0)))
			}
			for _, f := range d.Rel(PolicyRel("E")) {
				out.Add(fact.New("SawPol", f.Arg(0), f.Arg(1)))
			}
			return out, nil
		},
	}
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b)`)

	cases := []struct {
		mod                  Model
		id, all, adom, polcy bool
	}{
		{Original, true, true, false, false},
		{PolicyAware, true, true, true, true},
		{PolicyAwareNoAll, true, false, true, true},
		{OriginalNoAll, true, false, false, false},
		{Oblivious, false, false, false, false},
	}
	for _, c := range cases {
		sim, err := NewSimulation(net, sysSpy, ReplicateAll(net), c.mod, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sim.RunToQuiescence(5)
		if err != nil {
			t.Fatal(err)
		}
		if got := !out.RestrictRel("SawId").Empty(); got != c.id {
			t.Errorf("%+v: Id visible = %v", c.mod, got)
		}
		if got := !out.RestrictRel("SawAll").Empty(); got != c.all {
			t.Errorf("%+v: All visible = %v", c.mod, got)
		}
		if got := !out.RestrictRel("SawAdom").Empty(); got != c.adom {
			t.Errorf("%+v: MyAdom visible = %v", c.mod, got)
		}
		if got := !out.RestrictRel("SawPol").Empty(); got != c.polcy {
			t.Errorf("%+v: policyR visible = %v", c.mod, got)
		}
	}
}

func TestNoAllShrinksBase(t *testing.T) {
	// Without All, MyAdom contains only the node's own id plus the
	// values of its visible facts — not the other node ids.
	spy := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"SawAdom": 1}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			out := fact.NewInstance()
			for _, f := range d.Rel(RelMyAdom) {
				out.Add(fact.New("SawAdom", f.Arg(0)))
			}
			return out, nil
		},
	}
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b)`)
	sim, err := NewSimulation(net, spy, AllToNode("n1"), PolicyAwareNoAll, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunToQuiescence(5)
	if err != nil {
		t.Fatal(err)
	}
	// n1 sees {n1, a, b}; n2 sees {n2} only.
	want := fact.MustParseInstance(`SawAdom(n1) SawAdom(a) SawAdom(b) SawAdom(n2)`)
	if !out.Equal(want) {
		t.Errorf("MyAdom without All = %v, want %v", out, want)
	}
}

// The System view answers by probe exactly what systemFacts
// materialises: Id, the base A, MyAdom and Policy_R, each only where the
// model shows it, Policy_R only over A.
func TestSystemViewMatchesSystemFacts(t *testing.T) {
	tr := &Transducer{Schema: Schema{In: fact.MustSchema(map[string]int{"E": 2})}}
	net := MustNetwork("n1", "n2")
	local, state, m := fact.MustParseInstance(`E(a,b)`), fact.MustParseInstance(`E(b,c)`), fact.MustParseInstance(`E(c,d)`)
	j := local.Union(state).Union(m)
	edge := fact.InternString("E")
	for _, mod := range []Model{Original, PolicyAware, PolicyAwareNoAll, OriginalNoAll, Oblivious} {
		sp := &Stepper{Net: net, Trans: tr, Pol: FirstAttrPolicy(net), Mod: mod}
		s := System{sp: sp, x: "n1", j: [3]*fact.Instance{local, state, m}}
		want := sp.systemFacts("n1", j)
		got := fact.NewInstance()
		if id, ok := s.Id(); ok {
			got.Add(fact.New(RelId, id))
		}
		if mod.ShowAll {
			for _, y := range net {
				got.Add(fact.New(RelAll, y))
			}
		}
		b := s.Base()
		for _, v := range b.MyAdom() {
			got.AddIDs(fact.InternString(RelMyAdom), []fact.ID{v})
		}
		// Probe every pair over A and one value beyond it, twice: an
		// answer does not change between rounds.
		vals := append(append([]fact.ID(nil), b.vals...), fact.Intern("z"))
		for round := 0; round < 2; round++ {
			fact.EachTuple(vals, 2, func(args []fact.ID) bool {
				if b.Responsible(edge, args) {
					got.AddIDs(fact.InternString(PolicyRel("E")), args)
				}
				return true
			})
		}
		if !got.Equal(want) {
			t.Errorf("%+v: view shows %v, systemFacts %v", mod, got, want)
		}
	}
}

// A clone shares no Stepper state with its original — accumulators,
// node memories — and asks the policy afresh: the two may be stepped
// on different goroutines (the race detector watches) and still agree,
// through the four queries and through an insert-only form.
func TestCloneAsksThePolicyAfresh(t *testing.T) {
	spy := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"SawPol": 2}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			out := fact.NewInstance()
			for _, f := range d.Rel(PolicyRel("E")) {
				out.Add(fact.New("SawPol", f.Arg(0), f.Arg(1)))
			}
			return out, nil
		},
	}
	form := *spy
	form.Delta = func(_, _, _ *fact.Instance, sys System, d *Delta) error {
		base := sys.Base()
		e, saw := fact.InternString("E"), fact.InternString("SawPol")
		fact.EachTuple(base.MyAdom(), 2, func(args []fact.ID) bool {
			if base.Responsible(e, args) {
				d.Out.AddIDs(saw, args)
			}
			return true
		})
		return nil
	}
	net := MustNetwork("n1", "n2")
	for _, tr := range []*Transducer{spy, &form} {
		sim, err := NewSimulation(net, tr, HashPolicy(net), PolicyAware, fact.MustParseInstance(`E(a,b) E(b,c)`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Heartbeat("n1"); err != nil { // makes n1's memory
			t.Fatal(err)
		}
		clone := sim.Clone()
		var wg sync.WaitGroup
		for _, s := range []*Simulation{sim, clone} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, x := range net {
					if _, err := s.Heartbeat(x); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if !sim.Output().Equal(clone.Output()) || sim.Output().Empty() {
			t.Errorf("original output %v, clone %v", sim.Output(), clone.Output())
		}
	}
}

// forwardDelta is forwardTransducer with an insert-only form, which
// writes every accumulator the Stepper hands it: the delivered pairs
// pass through Scratch on their way to Out.
func forwardDelta() *Transducer {
	tr := forwardTransducer()
	o, f, seen, sent := fact.InternString("O"), fact.InternString("F"), fact.InternString("Seen"), fact.InternString("Sent")
	tr.Delta = func(local, state, m *fact.Instance, _ System, d *Delta) error {
		local.EachIDs(func(_ fact.ID, args []fact.ID) bool {
			d.Out.AddIDs(o, args)
			if !state.HasIDs(sent, args) {
				d.Ins.AddIDs(sent, args)
				d.Snd.AddIDs(f, args)
			}
			return true
		})
		m.EachIDs(func(_ fact.ID, args []fact.ID) bool {
			d.Ins.AddIDs(seen, args)
			d.Scratch.AddIDs(o, args)
			return true
		})
		d.Out.AddAll(d.Scratch)
		return nil
	}
	return tr
}

// TestCloneStepsIntoItsOwnSets: a clone steps into accumulators and a
// delivered set of its own. A Simulation that has made both is cloned,
// and the two run on two goroutines: under -race, sharing either trips
// the detector.
func TestCloneStepsIntoItsOwnSets(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	sim, err := NewSimulation(net, forwardDelta(), HashPolicy(net), Oblivious, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range net { // sends, so the next deliveries fill the delivered set
		if _, err := sim.Deliver(x); err != nil {
			t.Fatal(err)
		}
	}
	clone := sim.Clone()
	outs := make([]*fact.Instance, 2)
	var wg sync.WaitGroup
	for k, s := range []*Simulation{sim, clone} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := s.RunToQuiescence(16)
			if err != nil {
				t.Error(err)
			}
			outs[k] = out
		}()
	}
	wg.Wait()
	want := fact.MustParseInstance(`O(a,b) O(b,c) O(c,d)`)
	if !outs[0].Equal(want) || !outs[1].Equal(want) {
		t.Errorf("original output %v, clone %v, want %v", outs[0], outs[1], want)
	}
}

func TestHeartbeatDoesNotRead(t *testing.T) {
	// A heartbeat never consumes buffered messages.
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	// n1 heartbeat sends its 3 facts to n2.
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if sim.Buffered("n2") != 3 {
		t.Fatalf("n2 buffer = %d, want 3", sim.Buffered("n2"))
	}
	if _, err := sim.Heartbeat("n2"); err != nil {
		t.Fatal(err)
	}
	if sim.Buffered("n2") != 3 {
		t.Errorf("heartbeat consumed messages: buffer = %d", sim.Buffered("n2"))
	}
	if sim.Metrics.Heartbeats != 2 {
		t.Errorf("Heartbeats = %d", sim.Metrics.Heartbeats)
	}
}

func TestRejectsBadInput(t *testing.T) {
	net := MustNetwork("n1")
	_, err := NewSimulation(net, echoTransducer(), HashPolicy(net), Original, fact.MustParseInstance(`R(a)`))
	if err == nil {
		t.Error("input outside the input schema accepted")
	}
}

func TestRejectsOutOfSchemaQueryOutput(t *testing.T) {
	bad := echoTransducer()
	bad.Out = func(d *fact.Instance) (*fact.Instance, error) {
		return fact.MustParseInstance(`X(a)`), nil
	}
	net := MustNetwork("n1")
	sim, err := NewSimulation(net, bad, HashPolicy(net), Original, fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToQuiescence(5); err == nil {
		t.Error("out-of-schema query output accepted")
	}
}

func TestMemoryDeletion(t *testing.T) {
	// A transducer that inserts Flag(a) when it has no Flag, and
	// deletes it when it does — oscillating memory; quiescence must
	// fail, demonstrating the Qdel semantics and the run bound.
	osc := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Mem: fact.MustSchema(map[string]int{"Flag": 1}),
		},
		Ins: func(d *fact.Instance) (*fact.Instance, error) {
			if d.RestrictRel("Flag").Empty() {
				return fact.MustParseInstance(`Flag(on)`), nil
			}
			return fact.NewInstance(), nil
		},
		Del: func(d *fact.Instance) (*fact.Instance, error) {
			if !d.RestrictRel("Flag").Empty() {
				return fact.MustParseInstance(`Flag(on)`), nil
			}
			return fact.NewInstance(), nil
		},
	}
	net := MustNetwork("n1")
	sim, err := NewSimulation(net, osc, HashPolicy(net), Original, fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToQuiescence(10); err == nil {
		t.Error("oscillating transducer should not quiesce")
	}
}

func TestInsDelCancellation(t *testing.T) {
	// A fact both inserted and deleted in the same transition leaves
	// memory unchanged (Section 4.1.3's symmetric difference).
	tr := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"O": 1}),
			Mem: fact.MustSchema(map[string]int{"Flag": 1}),
		},
		Ins: func(d *fact.Instance) (*fact.Instance, error) {
			return fact.MustParseInstance(`Flag(on)`), nil
		},
		Del: func(d *fact.Instance) (*fact.Instance, error) {
			return fact.MustParseInstance(`Flag(on)`), nil
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			if !d.RestrictRel("Flag").Empty() {
				return fact.MustParseInstance(`O(seen)`), nil
			}
			return fact.NewInstance(), nil
		},
	}
	net := MustNetwork("n1")
	sim, err := NewSimulation(net, tr, HashPolicy(net), Original, fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunToQuiescence(5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Empty() {
		t.Errorf("cancelled insertion leaked into memory: %v", out)
	}
}

func TestHeartbeatPrefixComputes(t *testing.T) {
	net := MustNetwork("n1", "n2")
	// Ideal policy: everything at n1 — the forwarding transducer
	// outputs all of Q(I) at n1 with heartbeats only.
	ok, err := CoordinationFreeWitness(net, forwardTransducer(), AllToNode("n1"), Original,
		graphIn, wantO(graphIn), "n1", 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("forwarding transducer should have a heartbeat-only witness under the ideal policy")
	}

	// Under a split policy, n1 alone cannot produce the full output
	// with heartbeats (it never reads the other fragment).
	split := PolicyFunc(func(f fact.Fact) []NodeID {
		if f.Arg(0) == "a" {
			return []NodeID{"n1"}
		}
		return []NodeID{"n2"}
	})
	sim, err := NewSimulation(net, forwardTransducer(), split, Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = heartbeatPrefixComputes(sim, "n1", wantO(graphIn), 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("split policy should not admit a single-node heartbeat witness")
	}
}
