package ilog

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

func TestGoldenEvalTrace(t *testing.T) {
	p := edgeIDProgram()
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	var sb strings.Builder
	if _, err := p.Eval(in, Options{Sink: obs.NewSink(&sb)}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, kind := range []string{obs.EvIlogRound, obs.EvIlogStratum} {
		if !strings.Contains(got, `"ev":"`+kind+`"`) {
			t.Errorf("trace lacks %s events", kind)
		}
	}
	path := filepath.Join("testdata", "trace_eval.jsonl")
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

func TestEvalMetrics(t *testing.T) {
	p := edgeIDProgram()
	in := fact.MustParseInstance(`E(a,b) E(b,c) E(c,a)`)
	reg := obs.NewRegistry()
	out, err := p.Eval(in, Options{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Every edge invents one Id; every Id yields one O fact.
	if got := snap.Counters[obs.IlogInvented]; got != 3 {
		t.Errorf("invented = %d, want 3", got)
	}
	if got := snap.Counters[obs.IlogDerivations]; got != int64(out.Len()-in.Len()) {
		t.Errorf("derivations = %d, want %d", got, out.Len()-in.Len())
	}
	if got := snap.Gauges[obs.IlogFacts]; got != int64(out.Len()) {
		t.Errorf("facts gauge = %d, want %d", got, out.Len())
	}
	if snap.Counters[obs.IlogRounds] == 0 {
		t.Error("rounds not counted")
	}
	if snap.Latencies[obs.IlogEvalNs].Count != 1 {
		t.Error("eval span not recorded")
	}
}
