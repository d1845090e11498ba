package incr

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
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

// incrTraceSession is the fixed update session behind the golden
// trace: builds NoLoop over a path, closes a cycle, cuts it, and runs
// one mixed batch — exercising the insert, counting-delete, and DRed
// paths.
func incrTraceSession(t *testing.T, opts Options) {
	t.Helper()
	m, err := New(datalog.MustParseProgram(noLoopProg), generate.Path("n", 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range []Delta{
		{Insert: []fact.Fact{fact.MustParseFact("E(n3,n0)")}},
		{Retract: []fact.Fact{fact.MustParseFact("E(n1,n2)")}},
		{Insert: []fact.Fact{fact.MustParseFact("E(n1,n2)")}, Retract: []fact.Fact{fact.MustParseFact("E(n3,n0)"), fact.MustParseFact("E(n0,n1)")}},
	} {
		if _, err := m.Apply(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenIncrTrace(t *testing.T) {
	var sb strings.Builder
	incrTraceSession(t, Options{Tracer: obs.NewStream(&sb)})
	got := sb.String()
	for _, kind := range []string{obs.EvIncrApply, obs.EvIncrStratum} {
		if !strings.Contains(got, `"ev":"`+kind+`"`) {
			t.Errorf("trace lacks %s events", kind)
		}
	}
	for _, alg := range []string{`"alg":"count"`, `"alg":"dred"`} {
		if !strings.Contains(got, alg) {
			t.Errorf("trace lacks %s stratum events", alg)
		}
	}
	goldenCompare(t, "trace_incr.jsonl", got)
}
