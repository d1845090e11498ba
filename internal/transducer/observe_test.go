package transducer

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("trace drifted from golden %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenSimTrace pins the JSONL schema of every simulation event
// kind: a fully deterministic fault plan forces holds, a stall and a
// crash alongside ordinary deliver/heartbeat transitions, and the fair
// drive ends in quiescence.
func TestGoldenSimTrace(t *testing.T) {
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, in)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(&FaultPlan{
		Seed:      7,
		DupProb:   1.0, // every send duplicated
		DelayProb: 1.0, // every send held 1-2 ticks
		MaxDelay:  2,
		Stalls:    []Stall{{Node: "n2", From: 2, To: 3}},
		Crashes:   []Crash{{Node: "n1", At: 6}},
	})
	var sb strings.Builder
	sim.Observe(obs.NewStream(&sb))
	if _, err := sim.RunToQuiescence(64); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, kind := range []string{obs.EvTransition, obs.EvStall, obs.EvCrash, obs.EvHold, obs.EvQuiesce} {
		if !strings.Contains(got, `"ev":"`+kind+`"`) {
			t.Errorf("trace lacks %s events", kind)
		}
	}
	goldenCompare(t, "trace_sim.jsonl", got)
}

// TestGoldenExploreTrace pins the schedule/violation event schema on a
// transducer that outputs a wrong fact immediately.
func TestGoldenExploreTrace(t *testing.T) {
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
	var sb strings.Builder
	opts := ExploreOptions{Seeds: 1, Tracer: obs.NewStream(&sb)}
	v, stats, err := ExploreSchedules(net, bad, HashPolicy(net), Original, in, wantO(in), opts)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("wrong-fact transducer not caught")
	}
	got := sb.String()
	for _, kind := range []string{obs.EvSchedule, obs.EvViolation} {
		if !strings.Contains(got, `"ev":"`+kind+`"`) {
			t.Errorf("trace lacks %s events", kind)
		}
	}
	if stats.Aborted != 1 || stats.Violations != 1 {
		t.Errorf("stats Aborted=%d Violations=%d, want 1/1", stats.Aborted, stats.Violations)
	}
	goldenCompare(t, "trace_explore.jsonl", got)
}

// TestRunRandomSameSeedIdenticalEvents is the structured-stream twin
// of TestRunRandomSameSeedIdenticalTrace: equal seeds must produce
// byte-identical JSONL event streams, fault plan included (the random
// prefix runs under it).
func TestRunRandomSameSeedIdenticalEvents(t *testing.T) {
	run := func(seed int64) ([]byte, *fact.Instance) {
		net := MustNetwork("n1", "n2", "n3")
		sim, err := NewSimulation(net, forwardTransducer(), HashPolicy(net), Original, bigGraphIn())
		if err != nil {
			t.Fatal(err)
		}
		sim.SetFaults(RandomFaultPlan(net, seed, DefaultFaultConfig()))
		var buf bytes.Buffer
		sim.Observe(obs.NewStream(&buf))
		if err := sim.RandomPrefix(seed, 40); err != nil {
			t.Fatal(err)
		}
		out, err := sim.RunToQuiescence(sim.RoundBound(80))
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), out
	}
	for seed := int64(1); seed <= 5; seed++ {
		ev1, out1 := run(seed)
		ev2, out2 := run(seed)
		if !bytes.Equal(ev1, ev2) {
			t.Fatalf("seed %d: event streams differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, ev1, ev2)
		}
		if !out1.Equal(out2) {
			t.Fatalf("seed %d: outputs differ", seed)
		}
	}
}

// Clones never inherit the structured tracer, exactly as they never
// inherited the text trace (TestCloneDropsTrace).
func TestCloneDropsSink(t *testing.T) {
	net := MustNetwork("n1")
	sim, err := NewSimulation(net, echoTransducer(), HashPolicy(net), Original, fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sim.Observe(obs.NewStream(&sb))
	clone := sim.clone()
	if _, err := clone.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Error("clone wrote to the parent's event tracer")
	}
	// The parent still observes its own steps.
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Error("parent tracer detached by cloning")
	}
}

// TestExploreStatsCountPartialSchedules is the regression test for the
// transition undercount: a schedule aborted by a violation before its
// fair finish must still contribute its transitions and message flows
// to the stats (the old accounting only summed inside finish()).
func TestExploreStatsCountPartialSchedules(t *testing.T) {
	net := MustNetwork("n1", "n2")
	start, err := NewSimulation(net, forwardTransducer(), AllToNode("n2"), Original, fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	// Every output is wrong: n2's first transition outputs O(a,b).
	start.Want = fact.NewInstance()
	e := &explorer{start: start, opts: ExploreOptions{MaxRounds: 8}}
	// The prefix stops at the wrong fact, as the starvation and adversary
	// prefixes do, so the fair drive never runs.
	v, err := e.run("partial", nil, func(s *Simulation) error {
		for _, x := range net {
			if _, err := s.Deliver(x); err != nil || len(s.WrongFacts) > 0 {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Kind != WrongFact || v.Step != 2 || !v.Bad.Equal(fact.New("O", "a", "b")) {
		t.Fatalf("violation = %v, want O(a,b) at step 2", v)
	}
	if e.stats.Schedules != 1 || e.stats.Aborted != 1 || e.stats.Violations != 1 {
		t.Errorf("stats = %+v, want 1 schedule, 1 aborted, 1 violation", e.stats)
	}
	if e.stats.Transitions != 2 {
		t.Errorf("Transitions = %d, want 2 (partial schedules must count)", e.stats.Transitions)
	}
	if e.stats.Sim.Transitions != 2 || e.stats.Sim.MessagesSent == 0 {
		t.Errorf("Sim fold missing: %+v", e.stats.Sim)
	}
}

// TestExploreStatsFold checks the folded Metrics agree with the flat
// transition count on a clean exploration, and that Publish lands the
// explore.* counters.
func TestExploreStatsFold(t *testing.T) {
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	opts := ExploreOptions{Seeds: 5, Faults: DefaultFaultConfig()}
	v, stats, err := ExploreSchedules(net, forwardTransducer(), HashPolicy(net), Original, in, wantO(in), opts)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if stats.Aborted != 0 || stats.Violations != 0 {
		t.Errorf("clean run reported aborts: %+v", stats)
	}
	if stats.Sim.Transitions != stats.Transitions {
		t.Errorf("Sim.Transitions = %d, Transitions = %d; fold out of sync", stats.Sim.Transitions, stats.Transitions)
	}
	if stats.Sim.MessagesSent == 0 || stats.Sim.MessagesDelivered == 0 {
		t.Errorf("message flows not folded: %+v", stats.Sim)
	}
	reg := obs.NewRegistry()
	stats.Publish(reg)
	snap := reg.Snapshot()
	if snap.Counters[obs.ExploreSchedules] != int64(stats.Schedules) ||
		snap.Counters[obs.ExploreTransitions] != int64(stats.Transitions) ||
		snap.Counters[obs.SimTransitions] != int64(stats.Sim.Transitions) {
		t.Errorf("Publish mismatch: %+v vs %+v", snap.Counters, stats)
	}
}

// TestMetricsMerge pins the field-by-field fold.
func TestMetricsMerge(t *testing.T) {
	a := Metrics{Transitions: 1, Heartbeats: 2, MessagesSent: 3, MessagesDelivered: 4, MessagesDuplicated: 5,
		MessagesDelayed: 6, MessagesDropped: 7, MessagesRetransmitted: 8, Crashes: 9, StalledSteps: 10}
	b := a
	b.Merge(a)
	want := Metrics{Transitions: 2, Heartbeats: 4, MessagesSent: 6, MessagesDelivered: 8, MessagesDuplicated: 10,
		MessagesDelayed: 12, MessagesDropped: 14, MessagesRetransmitted: 16, Crashes: 18, StalledSteps: 20}
	if b != want {
		t.Errorf("Merge = %+v, want %+v", b, want)
	}
	reg := obs.NewRegistry()
	b.Publish(reg)
	snap := reg.Snapshot()
	if snap.Counters[obs.SimSent] != 6 || snap.Counters[obs.SimStalledSteps] != 20 {
		t.Errorf("Publish mapped wrong: %+v", snap.Counters)
	}
}
