package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/fact"
)

// smokeSeed has no golden file, so down-sized runs are held to their
// oracles only.
const smokeSeed = 3

// factLines renders an instance as sorted fact lines.
func factLines(i *fact.Instance) string {
	return strings.Join(fact.FactStrings(i.Facts()), "\n")
}

// inputsOf renders everything the benchmark generates from a seed:
// request streams and every workload's inputs.
func inputsOf(t *testing.T, seed int64) string {
	t.Helper()
	cfg := smallConfig()
	var b strings.Builder
	for conn := 0; conn < 3; conn++ {
		s := newStream(seed, conn, 0.5)
		for i := 0; i < 400; i++ {
			b.Write(s.next().line)
			b.WriteByte('\n')
		}
		fmt.Fprintln(&b, s.survivors())
	}
	b.WriteString(factLines(chainGraph(seedRng(seed, "chain"), "n", cfg.serveRead.chain)))
	chains, err := shardedChains(seed, cfg.clusterGather.chain, cfg.clusterGather.shards)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(factLines(chains))
	db, err := newDatalogBatch(cfg.datalog, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range db.evals {
		b.WriteString(e.name + "\n" + factLines(e.input))
	}
	nb, err := newNetsimBatch(cfg.netsim, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range nb.rings {
		b.WriteString(r.name + "\n" + factLines(r.input))
	}
	eb, err := newExploreBatch(cfg.explore, seed)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(factLines(eb.input))
	return b.String()
}

func TestEqualSeedsGiveIdenticalInputs(t *testing.T) {
	a, again, other := inputsOf(t, 7), inputsOf(t, 7), inputsOf(t, 8)
	if a != again {
		t.Error("the same seed gave different request streams or inputs")
	}
	if a == other {
		t.Error("different seeds gave identical request streams and inputs")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesHarness holds BENCHMARK.json and the harness
// to each other: same workloads, same metrics with the same units and
// bounds, names of the permitted form.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", f.RunSeconds, defaultSeconds)
	}
	if strings.Join(f.Command, " ") != "go run ./bench" || strings.Join(f.Paths, " ") != "bench" {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	ws := workloads(fullConfig())
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range f.Workloads {
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d: %q %q, harness %q %q", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or why not one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v, harness %+v", kind, i, m, w)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != w.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %q: bound %v, harness %v", kind, m.Name, m.Bound, w.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEndMetrics, true)
	check("per_layer", f.PerLayer, perLayerMetrics, false)
}

// TestSmokeEveryWorkload runs each workload down-sized: its oracle
// must pass and it must emit every end-to-end metric BENCHMARK.json
// lists, each above zero.
func TestSmokeEveryWorkload(t *testing.T) {
	cfg := smallConfig()
	for _, w := range workloads(cfg) {
		wr, err := runWorkload(w, options{seed: smokeSeed, seconds: 0.3, small: true}, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, wr.Correct, wr.Failed, wr.Attempted, wr.Notes)
		}
		for _, m := range endToEndMetrics {
			got := wr.Metrics[m.name]
			if got == nil || !(got.Value > 0) || got.Unit != m.unit {
				t.Errorf("%s: metric %s is %+v", w.name, m.name, got)
			}
		}
		if len(wr.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", w.name, len(wr.Metrics), len(endToEndMetrics))
		}
	}
}

// TestTracedRunsEmitEveryLayerMetric runs every workload's down-sized
// traced replay: each must pass its oracles, write its spans and
// produce a trace whose parts do not outweigh their wholes, and every
// per-layer metric of BENCHMARK.json must come from some workload.
func TestTracedRunsEmitEveryLayerMetric(t *testing.T) {
	emitted := map[string]bool{}
	for _, w := range workloads(smallConfig()) {
		wr, err := runWorkload(w, options{seed: smokeSeed, seconds: 1.2, small: true, trace: true}, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !wr.Correct {
			t.Errorf("%s traced: %d of %d failed: %v", w.name, wr.Failed, wr.Attempted, wr.Notes)
		}
		for name := range wr.Metrics {
			emitted[name] = true
		}
		for _, n := range wr.Notes {
			if strings.HasPrefix(n, "trace:") {
				t.Errorf("%s: %s", w.name, n)
			}
		}
		data, err := os.ReadFile(wr.Spans)
		if err != nil {
			t.Fatal(err)
		}
		var first span
		if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &first); err != nil || first.Name == "" || first.EndNs < first.StartNs {
			t.Errorf("%s: first span line %+v: %v", w.name, first, err)
		}
	}
	for _, m := range perLayerMetrics {
		if !emitted[m.name] {
			t.Errorf("no workload's traced run emits %s", m.name)
		}
	}
}

// TestCorruptedGoldenFails pins the golden check itself: the reference
// seed's netsim statistics match the committed file, and the same
// check fails once one pinned value is altered.
func TestCorruptedGoldenFails(t *testing.T) {
	nb, err := newNetsimBatch(fullConfig().netsim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nb.runOnce(); err != nil {
		t.Fatal(err)
	}
	g := goldenFor(1)
	if g == nil {
		t.Fatal("seed 1 has no golden file")
	}
	if err := compareGolden(g, nb.workload, nb.pins()); err != nil {
		t.Fatalf("committed golden: %v", err)
	}
	corrupt := golden{}
	for k, v := range g {
		corrupt[k] = v
	}
	key := nb.workload + "/" + nb.rings[0].name + "/metrics"
	corrupt[key] += " "
	if err := compareGolden(corrupt, nb.workload, nb.pins()); err == nil {
		t.Error("a corrupted golden value passed the check")
	}
	delete(corrupt, key)
	if err := compareGolden(corrupt, nb.workload, nb.pins()); err == nil {
		t.Error("a golden file lacking a pinned value passed the check")
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var s samples
	for i := int64(1); i <= 1000; i++ {
		s = append(s, i*1000)
	}
	for _, c := range []struct {
		q      float64
		us     float64
		beyond int
	}{{0.50, 500, 500}, {0.99, 990, 10}, {1, 1000, 0}} {
		ns, beyond := s.quantile(c.q)
		if float64(ns)/1e3 != c.us || beyond != c.beyond {
			t.Errorf("q%.2f: %d ns with %d beyond, want %.0f us with %d", c.q, ns, beyond, c.us, c.beyond)
		}
	}
}

// TestCalmIsTheLowerQuartile pins the estimator batch task times use.
func TestCalmIsTheLowerQuartile(t *testing.T) {
	xs := []float64{8, 4, 9, 2, 7, 5, 3, 6}
	if got := calm(xs); got != 4 {
		t.Errorf("lower quartile of %v: %v, want 4", xs, got)
	}
	if calm(nil) != 0 {
		t.Error("no values must read 0")
	}
}

func TestRecorderSelfTimeAndNesting(t *testing.T) {
	rec := newRecorder()
	parent := rec.begin("outer", 1, 0)
	child := rec.begin("inner", 1, parent)
	time.Sleep(nestingFloor)
	rec.end(child)
	rec.end(parent)
	if rec.find("outer", 1) != parent || rec.find("outer", 2) != 0 {
		t.Error("find does not key spans by name and op")
	}
	if total, children := rec.totals(); children["outer"] != total["inner"] || total["outer"] < total["inner"] {
		t.Errorf("totals %v, children %v", total, children)
	}
	if v := rec.nestingViolations(); len(v) != 0 {
		t.Errorf("a well-nested trace was flagged: %v", v)
	}
	// A child recorded as longer than its parent must be flagged.
	rec.spans[child-1].EndNs += 10 * rec.spans[parent-1].EndNs
	if v := rec.nestingViolations(); len(v) != 1 {
		t.Errorf("children outweighing their parent were not flagged: %v", v)
	}
}
