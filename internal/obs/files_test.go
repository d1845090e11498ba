package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagFiles pins the -trace/-metrics path conventions: "" disables
// (a nil tracer, nothing written), a path gets the JSONL events and the
// JSON snapshot, and an unwritable path is an error for the command to
// report — not an exit from inside the library.
func TestFlagFiles(t *testing.T) {
	tr, closeTrace, err := OpenTrace("")
	if tr != nil || err != nil || closeTrace() != nil {
		t.Fatalf("disabled trace: tracer %v, err %v", tr, err)
	}
	if err := writeMetrics(NewRegistry(), ""); err != nil {
		t.Fatalf("disabled metrics: %v", err)
	}

	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.json")
	tr, closeTrace, err = OpenTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit("ev", F("k", 1))
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	if err := writeMetrics(reg, metricsPath); err != nil {
		t.Fatal(err)
	}
	trace, _ := os.ReadFile(tracePath)
	metrics, _ := os.ReadFile(metricsPath)
	if !strings.Contains(string(trace), `"ev":"ev"`) || !strings.Contains(string(metrics), `"c": 3`) {
		t.Errorf("trace %q, metrics %q", trace, metrics)
	}

	missing := filepath.Join(dir, "no", "such", "dir", "f")
	if _, _, err := OpenTrace(missing); err == nil {
		t.Error("OpenTrace into a missing directory succeeded")
	}
	if err := writeMetrics(reg, missing); err == nil {
		t.Error("writeMetrics into a missing directory succeeded")
	}
}

// TestFinisher: the commands' shared way out closes the trace, then
// writes the metrics, and hands each failure to the command's fatal.
func TestFinisher(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.json")
	tr, closeTrace, err := OpenTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit("ev", F("k", 1))
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	var failed []error
	fail := func(err error) { failed = append(failed, err) }
	Finisher(closeTrace, reg, metricsPath, fail)()
	trace, _ := os.ReadFile(tracePath)
	metrics, _ := os.ReadFile(metricsPath)
	if len(failed) != 0 || !strings.Contains(string(trace), `"ev":"ev"`) || !strings.Contains(string(metrics), `"c": 3`) {
		t.Errorf("failed %v, trace %q, metrics %q", failed, trace, metrics)
	}
	Finisher(func() error { return os.ErrClosed }, reg, filepath.Join(dir, "no", "such", "f"), fail)()
	if len(failed) != 2 || failed[0] != os.ErrClosed {
		t.Errorf("a failing trace and an unwritable metrics path reported %v", failed)
	}
}
