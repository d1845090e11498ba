package transducer

import (
	"testing"

	"repro/internal/fact"
)

func TestSimulationClone(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	clone := sim.clone()
	// Step the clone; original must be unaffected.
	if _, err := clone.Deliver("n2"); err != nil {
		t.Fatal(err)
	}
	if sim.Buffered("n2") != 3 {
		t.Errorf("original buffer changed by clone step: %d", sim.Buffered("n2"))
	}
	if clone.Buffered("n2") != 0 {
		t.Errorf("clone buffer not drained: %d", clone.Buffered("n2"))
	}
	if sim.State("n2").Equal(clone.State("n2")) {
		t.Error("clone state should have diverged")
	}
}

// Every schedule of the forwarding transducer keeps the output inside
// the true answer (safety in all runs, not just the fair drivers).
func TestExploreForwarderSafe(t *testing.T) {
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	v, err := Explore(net, forwardTransducer(), HashPolicy(net), Original, in, wantO(in), 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("forwarder produced out-of-answer output: %v", v)
	}
}

// Explore finds genuine violations: a transducer that immediately
// outputs a wrong fact is caught on the first step.
func TestExploreFindsViolations(t *testing.T) {
	bad := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"O": 2}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			return fact.MustParseInstance(`O(wrong,wrong)`), nil
		},
	}
	net := MustNetwork("n1")
	in := fact.MustParseInstance(`E(a,b)`)
	v, err := Explore(net, bad, HashPolicy(net), Original, in, wantO(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("violation not found")
	}
	if !v.Bad.Equal(fact.New("O", "wrong", "wrong")) {
		t.Errorf("wrong violating fact: %v", v.Bad)
	}
	if len(v.Schedule) == 0 {
		t.Error("violation schedule empty (violations should be found after at least one step)")
	}
}

// The first wrong fact the machine reports is the first wrong fact of
// Output(), also when one transition outputs wrong facts in two
// relations: here out(R) walks B first, as n1 output it first, while
// the transition's own sorted order puts A first.
func TestWrongFactsFollowOutputOrder(t *testing.T) {
	tr := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"A": 1, "B": 1}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			out := fact.NewInstance()
			if d.Has(fact.New("E", "a", "b")) {
				out.Add(fact.New("B", "ok"))
			}
			if d.Has(fact.New("E", "c", "d")) {
				out.Add(fact.New("A", "bad"))
				out.Add(fact.New("B", "bad"))
			}
			return out, nil
		},
	}
	net := MustNetwork("n1", "n2")
	pol := PolicyFunc(func(f fact.Fact) []NodeID {
		if f.Arg(0) == "a" {
			return []NodeID{"n1"}
		}
		return []NodeID{"n2"}
	})
	in := fact.MustParseInstance(`E(a,b) E(c,d)`)
	want := fact.MustParseInstance(`B(ok)`)

	sim, err := NewSimulation(net, tr, pol, Original, in)
	if err != nil {
		t.Fatal(err)
	}
	sim.Want = want
	for _, x := range net {
		if _, err := sim.Heartbeat(x); err != nil {
			t.Fatal(err)
		}
	}
	var first fact.Fact
	sim.Output().Each(func(f fact.Fact) bool {
		first = f
		return want.Has(f)
	})
	if len(sim.WrongFacts) != 2 || !sim.WrongFacts[0].Equal(first) || !first.Equal(fact.New("B", "bad")) || sim.WrongAt != 2 {
		t.Fatalf("WrongFacts = %v at %d; first wrong fact of out(R) is %v", sim.WrongFacts, sim.WrongAt, first)
	}

	v, err := Explore(net, tr, pol, Original, in, want, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Schedule != "n1:hb n2:hb" || v.Step != 2 || !v.Bad.Equal(first) {
		t.Fatalf("Explore = %v, want %v at step 2 of n1:hb n2:hb", v, first)
	}
}

// The schedule explorer finds the forwarder clean across starvation,
// greedy adversaries, and seeded fault plans — and counts its work.
func TestExploreSchedulesForwarderClean(t *testing.T) {
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	opts := ExploreOptions{Seeds: 30, Faults: DefaultFaultConfig()}
	v, stats, err := ExploreSchedules(net, forwardTransducer(), HashPolicy(net), Original, in, wantO(in), opts)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("forwarder violated a schedule: %v", v)
	}
	// 1 fair + |N| starvation + 1 flood + |N| fresh-starve + 30 seeded.
	if want := 1 + len(net) + 1 + len(net) + 30; stats.Schedules != want {
		t.Errorf("Schedules = %d, want %d", stats.Schedules, want)
	}
	if stats.Transitions == 0 {
		t.Error("no transitions counted")
	}
}

func TestExploreSchedulesFindsWrongFact(t *testing.T) {
	bad := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"O": 2}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			return fact.MustParseInstance(`O(wrong,wrong)`), nil
		},
	}
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b)`)
	v, _, err := ExploreSchedules(net, bad, HashPolicy(net), Original, in, wantO(in), ExploreOptions{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("wrong-fact transducer not caught")
	}
	if v.Kind != WrongFact {
		t.Errorf("Kind = %v, want %v", v.Kind, WrongFact)
	}
	if !v.Bad.Equal(fact.New("O", "wrong", "wrong")) {
		t.Errorf("Bad = %v", v.Bad)
	}
	if v.Schedule == "" {
		t.Error("violation carries no schedule label")
	}
}

// A transducer whose memory oscillates never quiesces; the explorer
// reports that as a NoQuiescence violation rather than hanging.
func TestExploreSchedulesNoQuiescence(t *testing.T) {
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
	in := fact.MustParseInstance(`E(a,b)`)
	v, _, err := ExploreSchedules(net, osc, HashPolicy(net), Original, in, fact.NewInstance(),
		ExploreOptions{Seeds: 1, MaxRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Kind != NoQuiescence {
		t.Errorf("violation = %v, want NoQuiescence", v)
	}
}

func TestViolationKindString(t *testing.T) {
	for k, want := range map[ViolationKind]string{
		WrongFact:    "wrong-fact",
		Divergence:   "divergence",
		NoQuiescence: "no-quiescence",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// "Π computes Q" is ExploreSchedules' verdict: the forwarder computes
// O on every explored schedule, and no bounded heartbeat/deliver-all
// schedule leaves the answer.
func TestCheckComputesForwarder(t *testing.T) {
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	v, _, err := ExploreSchedules(net, forwardTransducer(), HashPolicy(net), Original, in, wantO(in), ExploreOptions{Seeds: 5})
	if err != nil || v != nil {
		t.Fatalf("forwarder should compute O: violation %v, error %v", v, err)
	}
	if v, err := Explore(net, forwardTransducer(), HashPolicy(net), Original, in, wantO(in), 4); err != nil || v != nil {
		t.Fatalf("forwarder should be safe to depth 4: violation %v, error %v", v, err)
	}
}

// The echo transducer outputs only its fragment; against a wrong
// expected set the first schedule, the fair one, already fails.
func TestCheckComputesDetectsWrongOutput(t *testing.T) {
	net := MustNetwork("n1")
	in := fact.MustParseInstance(`E(a,b)`)
	v, _, err := ExploreSchedules(net, echoTransducer(), HashPolicy(net), Original, in,
		fact.MustParseInstance(`O(z,z)`), ExploreOptions{Seeds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Schedule != "fair" {
		t.Fatalf("violation = %v, want one on schedule fair", v)
	}
}

// A transducer that emits a wrong fact as soon as any message is
// delivered to it: correct under heartbeats only, wrong in every fair
// run — the explorer must catch it.
func TestCheckComputesDetectsScheduleRace(t *testing.T) {
	bad := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"O": 2}),
			Msg: fact.MustSchema(map[string]int{"F": 1}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			if !d.RestrictRel("F").Empty() {
				return fact.MustParseInstance(`O(bad,bad)`), nil
			}
			out := fact.NewInstance()
			for _, f := range d.Rel("E") {
				out.Add(fact.New("O", f.Arg(0), f.Arg(1)))
			}
			return out, nil
		},
		Snd: func(d *fact.Instance) (*fact.Instance, error) {
			return fact.MustParseInstance(`F(ping)`), nil
		},
	}
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b)`)
	v, _, err := ExploreSchedules(net, bad, ReplicateAll(net), Original, in, wantO(in), ExploreOptions{Seeds: 5, MaxRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Kind != WrongFact || !v.Bad.Equal(fact.New("O", "bad", "bad")) {
		t.Fatalf("violation = %v, want the delivery-triggered O(bad,bad)", v)
	}
}

// An explorer's seed:k schedule is RandomPrefix(k, 8·|N|) and a fair
// drive under RandomFaultPlan(net, k, cfg) — the same run a caller
// drives by hand, transition for transition.
func TestExploreSeedScheduleIsRandomPrefix(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	in := bigGraphIn()
	cfg := DefaultFaultConfig()
	drive := func(plan *FaultPlan, seed int64, steps int) Metrics {
		s, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, in)
		if err != nil {
			t.Fatal(err)
		}
		s.Want = wantO(in)
		s.SetFaults(plan)
		if err := s.RandomPrefix(seed, steps); err != nil {
			t.Fatal(err)
		}
		out, err := s.RunToQuiescence(s.RoundBound(0))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(s.Want) {
			t.Fatalf("seed %d: hand-driven run quiesced on %v", seed, out)
		}
		return s.Metrics
	}
	for seed := int64(1); seed <= 5; seed++ {
		opts := ExploreOptions{Seeds: 1, BaseSeed: seed, Faults: cfg, SkipStarvation: true, SkipAdversary: true}
		v, stats, err := ExploreSchedules(net, forwardTransducer(), HashPolicy(net), Original, in, wantO(in), opts)
		if err != nil || v != nil {
			t.Fatalf("seed %d: violation %v, error %v", seed, v, err)
		}
		// The explored runs are fair and seed:k, both quiescent on want.
		want := drive(nil, 0, 0)
		want.Merge(drive(RandomFaultPlan(net, seed, cfg), seed, 8*len(net)))
		if stats.Schedules != 2 || stats.Sim != want {
			t.Fatalf("seed %d: explored %d schedules, metrics %+v; hand-driven %+v", seed, stats.Schedules, stats.Sim, want)
		}
	}
}
