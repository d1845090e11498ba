package datalog

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// goldenCompare checks got against testdata/<name>, rewriting the file
// under -update.
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

func TestGoldenStratifiedTrace(t *testing.T) {
	p := MustParseProgram(complementTC)
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	var sb strings.Builder
	if _, err := p.EvalStratified(in, FixpointOptions{Mode: SemiNaive, Tracer: obs.NewStream(&sb)}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, kind := range []string{obs.EvDlRound, obs.EvDlStratum, obs.EvDlFixpoint} {
		if !strings.Contains(got, `"ev":"`+kind+`"`) {
			t.Errorf("trace lacks %s events", kind)
		}
	}
	goldenCompare(t, "trace_stratified.jsonl", got)
}

// TestEngineMetricsAcrossModes pins the cross-mode invariants of the
// dl.* counters: the summed deltas equal the derived output in every
// mode, and the semi-naive and parallel judgements agree exactly.
func TestEngineMetricsAcrossModes(t *testing.T) {
	p := MustParseProgram(complementTC)
	// 300 edges put the opening pass and the early delta rounds over
	// inlineBelow: a smaller fixture would run inline throughout and
	// leave dl.worker_busy_ns unobserved.
	in := generate.RandomGraph(rand.New(rand.NewSource(7)), "v", 40, 300)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	snaps := make(map[EvalMode]obs.Snapshot)
	var outLen int
	for _, mode := range []EvalMode{SemiNaive, Naive, Parallel} {
		reg := obs.NewRegistry()
		out, err := p.EvalStratified(in, FixpointOptions{Mode: mode, Reg: reg})
		if err != nil {
			t.Fatal(err)
		}
		outLen = out.Len()
		snaps[mode] = reg.Snapshot()
	}
	derivedFacts := int64(outLen - in.Len())
	for mode, snap := range snaps {
		if got := snap.Counters[obs.DlDeltaFacts]; got != derivedFacts {
			t.Errorf("%v: delta_facts = %d, want %d", mode, got, derivedFacts)
		}
		if snap.Counters[obs.DlStrata] == 0 || snap.Counters[obs.DlRounds] == 0 {
			t.Errorf("%v: missing strata/rounds counters: %+v", mode, snap.Counters)
		}
		if snap.Counters[obs.DlCandidates] == 0 {
			t.Errorf("%v: candidates not counted", mode)
		}
	}
	// The per-task judgement against the frozen instance makes the
	// derivation and duplicate counts identical between inline and
	// fanned-out semi-naive execution.
	for _, name := range []string{obs.DlDerivations, obs.DlDuplicates, obs.DlCandidates} {
		if sn, par := snaps[SemiNaive].Counters[name], snaps[Parallel].Counters[name]; sn != par {
			t.Errorf("%s: seminaive %d != parallel %d", name, sn, par)
		}
	}
	// Parallel mode reports its width.
	if snaps[Parallel].Gauges[obs.DlWorkers] != 4 {
		t.Errorf("workers gauge = %d, want 4", snaps[Parallel].Gauges[obs.DlWorkers])
	}
	// Inline rounds observe no busy time, so the fanned-out tasks are at
	// most the task total.
	fanned := fannedOut(snaps[Parallel])
	if total := snaps[Parallel].Counters[obs.DlTasks]; fanned == 0 || fanned > total {
		t.Errorf("%d tasks ran fanned out, want in (0, %d]", fanned, total)
	}
}

// TestParallelTraceDeterministic verifies the event-plane contract:
// repeated runs of the same configuration are byte-identical even when
// the rounds fan out over more goroutines than the box has cores.
func TestParallelTraceDeterministic(t *testing.T) {
	p := MustParseProgram(complementTC)
	in := generate.RandomGraph(rand.New(rand.NewSource(11)), "v", 40, 300)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	run := func() string {
		var sb strings.Builder
		_, err := p.EvalStratified(in, FixpointOptions{Mode: Parallel, Tracer: obs.NewStream(&sb)})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("parallel trace is scheduling-dependent:\nfirst:\n%s\nrun %d:\n%s", first, i+2, got)
		}
	}
}

// TestPerRuleCounters checks the dl.rule.* naming scheme lands one
// counter triple per productive rule.
func TestPerRuleCounters(t *testing.T) {
	p := MustParseProgram(complementTC)
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	reg := obs.NewRegistry()
	if _, err := p.EvalStratified(in, FixpointOptions{Reg: reg}); err != nil {
		t.Fatal(err)
	}
	var perRule []string
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, obs.DlRulePrefix) {
			perRule = append(perRule, name)
		}
	}
	// 5 rules across 2 non-empty strata (T and Adom share stratum 1),
	// a counter triple each; all derive on this input.
	if len(perRule) != 15 {
		t.Errorf("per-rule counters = %d (%v), want 15", len(perRule), perRule)
	}
	if reg.Snapshot().Counters["dl.rule.s2.r0.O.derivations"] == 0 {
		t.Errorf("stratum-2 rule O not counted: %v", perRule)
	}
}
