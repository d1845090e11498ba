package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go holds
// the two lists below and that file to each other.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// floor is the absolute difference below which -aa takes two
	// readings to agree whatever their ratio: a set-up of a few
	// milliseconds moves by a quarter when the machine hiccups once.
	floor float64
}

// The bounds are what the reference box supports, not what one would
// like; README.md has the measured spreads.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op1_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "op1_tail_us", unit: "us", better: "lower", bound: 0.25},
	{name: "op2_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "op2_tail_us", unit: "us", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.25},
}

// report is one invocation's full output: the environment the numbers
// were taken in, then every workload's metrics.
type report struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Workloads  []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Workload  string                   `json:"workload"`
	Trace     bool                     `json:"trace"`
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]*metricReport `json:"metrics"`
	// Extra are informative figures outside BENCHMARK.json: the
	// read/write split of the open loop, generator lateness, pinned
	// work numerators.
	Extra map[string]float64 `json:"extra,omitempty"`
	Notes []string           `json:"notes,omitempty"`
	Spans string             `json:"spans,omitempty"`
}

type metricReport struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Summary is set for metrics taken over several readings (blocks,
	// cycles, passes, probes). Samples is how many exact samples a
	// percentile was read off.
	Summary summary `json:"summary,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

func (wr *workloadReport) fill(res *result) {
	wr.Attempted, wr.Failed = res.attempted, res.failed
	wr.Correct = res.failed == 0 && res.attempted > 0
	wr.Notes = append(wr.Notes, res.notes...)
	wr.Extra = res.extra
}

func newReport(o options) *report {
	return &report{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
}

// commit names the checked-out commit when the working directory is a
// git checkout, and never looks outside it.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  %s  cpu %q  nproc %d  GOMAXPROCS %d  seed %d  seconds %g\n", r.Commit, r.GoVersion, r.CPU, r.NProc, r.GOMAXPROCS, r.Seed, r.Seconds)
	for _, wr := range r.Workloads {
		wr.print(w)
	}
}

func (wr *workloadReport) print(w io.Writer) {
	mode := "end to end, tracing off"
	if wr.Trace {
		mode = "traced layered replay"
	}
	fmt.Fprintf(w, "\n%s (%s): attempted %d failed %d correct %v\n", wr.Workload, mode, wr.Attempted, wr.Failed, wr.Correct)
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := wr.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s", n, m.Value, m.Unit)
		if m.Summary.N > 0 {
			fmt.Fprintf(w, " n=%d min=%.4f median=%.4f max=%.4f", m.Summary.N, m.Summary.Min, m.Summary.Median, m.Summary.Max)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " samples=%d", m.Samples)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
	extra := make([]string, 0, len(wr.Extra))
	for n := range wr.Extra {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Fprintf(w, "  . %-32s %14.4f\n", n, wr.Extra[n])
	}
	for _, note := range wr.Notes {
		fmt.Fprintf(w, "  ! %s\n", note)
	}
	if wr.Spans != "" {
		fmt.Fprintf(w, "  spans written to %s\n", wr.Spans)
	}
}

// failure is the error a report with a wrong answer ends the run with.
func (r *report) failure() error {
	for _, wr := range r.Workloads {
		if !wr.Correct {
			return fmt.Errorf("%s: %d of %d attempted operations failed", wr.Workload, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

func (r *report) writeJSON(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printLast prints the result line the benchmark contract asks for as
// the last line of standard output: every end-to-end metric, or on a
// traced run every per-layer metric, those of layers the workload
// bypasses as 0. A run over several workloads prefixes each metric
// with its workload.
func (r *report) printLast(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, wr := range r.Workloads {
		last.Correct = last.Correct && wr.Correct
		last.Attempted += wr.Attempted
		last.Failed += wr.Failed
		defs := endToEndMetrics
		if wr.Trace {
			defs = perLayerMetrics
		}
		for _, d := range defs {
			n, v := d.name, value{Unit: d.unit}
			if m := wr.Metrics[n]; m != nil {
				v.Value = m.Value
			}
			if len(r.Workloads) > 1 {
				n = wr.Workload + "." + n
			}
			last.Metrics[n] = v
		}
	}
	data, _ := json.Marshal(last) // plain numbers, strings and bools: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// aaRuns is how many runs of every workload each A/A set holds. One
// run a side would compare two single readings on 42 pairs of workload
// and metric, and on the reference box one of them then lands outside
// its bound more often than not; medians of three are what the bounds
// are meant to be held against.
const aaRuns = 3

// runAA is the A/A check: two sets of end-to-end runs of the same
// commit, alternating run by run so a slow spell of the machine falls on
// both. For every workload and metric it prints the two sets' medians,
// their distance as a share of the better one next to the metric's
// bound, and the observed spread: the range of all the runs over their
// median. Medians further apart than the bound (and the metric's
// absolute floor) DISAGREE and fail the check: a benchmark that
// disagrees with itself cannot gate a change. Medians that agree while
// the single runs spread wider than the bound are unresolved, not
// agreeing: the box is too noisy right now for the bound to mean much.
func runAA(o options) error {
	o.trace = false
	fmt.Printf("A/A: two sets of %d runs of the same commit, alternating\n", aaRuns)
	newReport(o).print(os.Stdout)
	fmt.Printf("\n%-16s %-18s %14s %14s %9s %7s %8s\n", "workload", "metric", "first", "second", "distance", "bound", "spread")
	disagree, unresolved := 0, 0
	for _, w := range workloads(o.config()) {
		var sets [2]map[string][]float64
		for side := range sets {
			sets[side] = map[string][]float64{}
		}
		for i := 0; i < aaRuns; i++ {
			for side := range sets {
				wr, err := o.runChild(w.name)
				if err == nil && !wr.Correct {
					err = fmt.Errorf("%d of %d attempted operations failed", wr.Failed, wr.Attempted)
				}
				if err != nil {
					return fmt.Errorf("A/A set %d, %s: %w", side+1, w.name, err)
				}
				for _, m := range endToEndMetrics {
					sets[side][m.name] = append(sets[side][m.name], wr.Metrics[m.name].Value)
				}
			}
		}
		for _, m := range endToEndMetrics {
			a, b := median(sets[0][m.name]), median(sets[1][m.name])
			all := summarize(append(append([]float64(nil), sets[0][m.name]...), sets[1][m.name]...))
			distance, spread := math.Abs(a-b)/math.Min(a, b), (all.Max-all.Min)/all.Median
			verdict := ""
			switch {
			case !(distance <= m.bound) && math.Abs(a-b) > m.floor:
				verdict = "  DISAGREE"
				disagree++
			case spread > m.bound && all.Max-all.Min > m.floor:
				verdict = "  unresolved"
				unresolved++
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %8.1f%% %6.0f%% %7.1f%%%s\n", w.name, m.name, a, b, 100*distance, 100*m.bound, 100*spread, verdict)
		}
	}
	fmt.Printf("A/A: %d metric(s) disagree, %d unresolved (single runs spread wider than the bound)\n", disagree, unresolved)
	if disagree > 0 {
		return fmt.Errorf("A/A: %d metric(s) differ between two sets of runs of the same commit by more than their bound", disagree)
	}
	return nil
}
