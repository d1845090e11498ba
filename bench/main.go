// Command bench is the repository's yardstick: one seeded benchmark,
// six workloads, end-to-end metrics with tracing off and a traced
// layered replay. See README.md in this directory and BENCHMARK.json
// at the repository root.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1]
//	go run ./bench -aa            # two full sets, compared with the bounds
//
// Every input is generated from the seed, every output is checked
// against an oracle, and the last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}. The exit code is
// non-zero on a wrong answer.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures when -seconds is not given.
const defaultSeconds = 12

// setupProbes is how many fresh processes time the workload's set-up,
// spread over the run; setup_s is their median.
const setupProbes = 21

// outDir, in the working directory, receives span files and the
// reports child processes hand to a coordinating run.
const outDir = ".bench_out"

// options are the command line, plus the executable a coordinating run
// re-runs per workload and per set-up probe. small is not a flag: tests
// set it to run down-sized inputs in their own process.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool
	jsonOut  string
	self     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; seed 1 is the reference")
	// The benchmark contract's driver passes -seconds run_seconds on every run.
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time per workload")
	trace := flag.Int("trace", 0, "1: traced layered replay printing the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.jsonOut, "json", "", "also write the report as JSON to this file")
	aa := flag.Bool("aa", false, "run the full set twice and compare the two with the benchmark's own bounds")
	probe := flag.Bool("setup-probe", false, "internal: set the workload up, print ready, exit")
	update := flag.Bool("update-golden", false, "rewrite bench/golden/seed<seed>.json from the current outputs, then exit")
	flag.Parse()
	o.trace = *trace != 0
	var err error
	switch {
	case *update:
		err = writeGolden(o.seed)
	case *probe:
		err = o.setupProbe()
	case *aa:
		err = o.withSelf(runAA)
	default:
		err = o.withSelf(run)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) config() config {
	if o.small {
		return smallConfig()
	}
	return fullConfig()
}

func (o options) withSelf(mode func(options) error) error {
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	o.self = self
	return mode(o)
}

// setupProbe is the child side of setupSeconds: set the workload up,
// say so, tear it down.
func (o options) setupProbe() error {
	w, err := lookup(o.config(), o.workload)
	if err != nil {
		return err
	}
	teardown, err := w.setup(o.seed)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	teardown()
	return nil
}

// run measures one workload in this process, or all of them in a child
// process each, prints the report and ends standard output with the
// result line.
func run(o options) error {
	rep := newReport(o)
	var err error
	if o.workload == "all" {
		err = rep.runAll(o)
	} else {
		var w *workload
		if w, err = lookup(o.config(), o.workload); err != nil {
			return err
		}
		var wr *workloadReport
		if wr, err = runWorkload(w, o, outDir); err != nil {
			return err
		}
		rep.Workloads = []*workloadReport{wr}
	}
	rep.print(os.Stdout)
	if werr := rep.writeJSON(o.jsonOut); err == nil {
		err = werr
	}
	rep.printLast(os.Stdout)
	if err != nil {
		return err
	}
	return rep.failure()
}

// runWorkload measures one workload in this process, which the caller
// guarantees is fresh: the symbol table in internal/fact is
// process-global and append-only, so two workloads in one process
// would contaminate each other's set-up time and memory.
func runWorkload(w *workload, o options, spanDir string) (*workloadReport, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	wr := &workloadReport{Workload: w.name, Trace: o.trace, Metrics: map[string]*metricReport{}}
	if o.trace {
		rec := newRecorder()
		sheet, res, err := layerSheet(w, o.seed, budget, rec)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayerMetrics {
			if v, ok := sheet[m.name]; ok {
				wr.Metrics[m.name] = &metricReport{Value: v, Unit: m.unit}
				delete(sheet, m.name)
			}
		}
		for name := range sheet {
			return nil, fmt.Errorf("layer sheet holds %s, which BENCHMARK.json does not list", name)
		}
		wr.fill(res)
		wr.Notes = append(wr.Notes, rec.nestingViolations()...)
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := rec.writeJSONL(path); err != nil {
			return nil, err
		}
		wr.Spans = path
		return wr, nil
	}
	// Set-up is timed in fresh processes spread over the measuring
	// time, one after a repetition whenever a share of the budget has
	// passed, so a slow spell of the machine spoils one probe, not all.
	var setup []float64
	var probeErr error
	probe := func() {
		d, err := setupSeconds(w, o)
		if err != nil {
			probeErr = err
		}
		setup = append(setup, d)
	}
	start, every := time.Now(), budget/(setupProbes+1)
	res, err := w.measure(o.seed, budget, func() {
		for len(setup) < setupProbes && time.Since(start) >= time.Duration(len(setup)+1)*every {
			probe()
		}
	})
	if err != nil {
		return nil, err
	}
	for len(setup) < setupProbes {
		probe()
	}
	if probeErr != nil {
		return nil, probeErr
	}
	wr.fill(res)
	report := func(name, unit, note string, e estimate) {
		wr.Metrics[name] = &metricReport{Value: e.value, Unit: unit, Summary: summarize(e.over), Samples: e.samples, Note: note}
	}
	report("setup_s", "s", "", estimate{value: median(setup), over: setup})
	report("throughput_per_s", "1/s", w.counts, res.throughput)
	for c := range res.p50 {
		op := fmt.Sprintf("op%d", c+1)
		report(op+"_p50_us", "us", w.ops[c], res.p50[c])
		report(op+"_tail_us", "us", w.tail, res.tail[c])
	}
	wr.Metrics["live_heap_mb"] = &metricReport{Value: res.heapMB, Unit: "MB"}
	return wr, nil
}

// setupSeconds times the workload's set-up once, process start to
// ready, in a fresh process. With no executable to re-run (tests) it
// times a set-up in this process instead.
func setupSeconds(w *workload, o options) (float64, error) {
	if o.self == "" {
		start := time.Now()
		teardown, err := w.setup(o.seed)
		if err != nil {
			return 0, err
		}
		d := time.Since(start).Seconds()
		teardown()
		return d, nil
	}
	cmd := exec.Command(o.self, "-setup-probe", "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start).Seconds()
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q, not ready", line)
	}
	return d, nil
}

// runChild runs one workload in a fresh process and returns its parsed
// report. The child's standard output is dropped so the coordinator's
// stays one report; the child hands its report over through a file.
func (o options) runChild(name string) (*workloadReport, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("child-%s-%d.json", name, os.Getpid()))
	defer os.Remove(tmp)
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-json", tmp,
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(o.self, args...)
	cmd.Stderr = os.Stderr
	// A child that found a wrong answer exits non-zero but still wrote
	// its report; only a child that left no readable report is an error.
	runErr := cmd.Run()
	var rep report
	data, err := os.ReadFile(tmp)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil || len(rep.Workloads) != 1 {
		return nil, fmt.Errorf("%s: no readable child report (%v; child: %v)", name, err, runErr)
	}
	return rep.Workloads[0], nil
}

// runAll runs every workload, each in its own process.
func (r *report) runAll(o options) error {
	for _, w := range workloads(o.config()) {
		wr, err := o.runChild(w.name)
		if err != nil {
			return err
		}
		r.Workloads = append(r.Workloads, wr)
	}
	return nil
}

func lookup(cfg config, name string) (*workload, error) {
	for _, w := range workloads(cfg) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
