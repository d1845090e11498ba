package transducer

import (
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
)

func TestTraceOutput(t *testing.T) {
	net := MustNetwork("n1", "n2")
	in := fact.MustParseInstance(`E(a,b)`)
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, in)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sim.Observe(obs.NewStream(&buf))
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Deliver("n2"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace has %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], `"ev":"sim.transition"`) || !strings.Contains(lines[0], `"node":"n1","kind":"heartbeat"`) {
		t.Errorf("first trace line wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], `"node":"n2","kind":"deliver","delivered":1`) {
		t.Errorf("second trace line wrong: %q", lines[1])
	}

	// Disabling stops further output.
	sim.Observe(nil)
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != out {
		t.Error("trace emitted after being disabled")
	}
}

// Clones never inherit the tracer (the explorer would flood it).
func TestCloneDropsTrace(t *testing.T) {
	net := MustNetwork("n1")
	sim, err := NewSimulation(net, echoTransducer(), HashPolicy(net), Original, fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sim.Observe(obs.NewStream(&buf))
	clone := sim.clone()
	if _, err := clone.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("clone wrote to the parent's tracer")
	}
}
