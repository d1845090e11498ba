package netsim_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/generate"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transducer"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// TestGoldenEventTrace pins the event-mode stream across commits:
// TestEventDeterminism only compares two runs of one binary, so a
// change to event order, fault application or the emitted fields would
// otherwise pass unnoticed. A 16-ring under gossip/TC with duplication,
// delay, one stall and one crash exercises every sim.* kind plus
// netsim.quiesce.
func TestGoldenEventTrace(t *testing.T) {
	topo := generate.MustTopology(generate.TopoRing, 16, 41)
	in := sixGraph()
	s := buildTopoSim(t, topo, in, netsim.Options{Seed: 41})
	s.SetFaults(&transducer.FaultPlan{
		Seed:      41,
		DupProb:   0.3,
		DelayProb: 0.4,
		MaxDelay:  5,
		Stalls:    []transducer.Stall{{Node: "n03", From: 2, To: 9}},
		Crashes:   []transducer.Crash{{Node: "n07", At: 6}},
	})
	var buf bytes.Buffer
	s.Observe(obs.NewSink(&buf))
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantTC(t, in)) || !s.Conserved() {
		t.Fatalf("faulty ring run: output %v, conserved %v", out, s.Conserved())
	}
	for _, kind := range []string{obs.EvTransition, obs.EvStall, obs.EvCrash, obs.EvHold, obs.EvNetsimQuiesce} {
		if !bytes.Contains(buf.Bytes(), []byte(`"ev":"`+kind+`"`)) {
			t.Errorf("trace lacks %s events", kind)
		}
	}

	path := filepath.Join("testdata", "ring16_faulty.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("event-mode trace drifted from golden %s (%d bytes, want %d)", path, buf.Len(), len(want))
	}
}
