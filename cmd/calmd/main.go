// Command calmd is a long-lived serving daemon around the incremental
// view-maintenance engine (internal/incr): it loads a Datalog(≠)
// program, materializes an initial instance, then accepts
// insert/retract deltas and queries over a newline-delimited JSON
// protocol — on stdin/stdout by default, or on a TCP socket with
// -listen. Deltas are applied incrementally (counting for insertions
// and non-recursive deletions, DRed for deletions through recursion or
// stratified negation), never by recomputation.
//
// Serving is concurrent and epoch-pinned (internal/serve): a single
// writer goroutine group-commits batched deltas and publishes
// immutable read epochs; queries run concurrently against the epoch
// current when they arrived, on any number of pipelined connections,
// with responses in request order per connection and bounded queues
// everywhere (backpressure instead of unbounded buffering). Query
// responses stay a pure function of the serving epoch's fact set, so
// a daemon restored with -restore from a snapshot answers
// byte-identically to the daemon that wrote it.
//
// With -shards N the daemon runs as a sharded cluster behind a
// router speaking the same protocol (internal/cluster): base facts
// are partitioned or replicated across N in-process shards, deltas
// stream to shard pumps asynchronously, and the plan reads the
// program's licence from Figure 2 — reads fence only on the last write
// it does not cover: a retract for monotone programs, every write
// otherwise.
//
// Usage:
//
//	calmd -program tc.dl -input graph.facts
//	calmd -restore state.snap -listen localhost:4432
//	calmd -program tc.dl -input graph.facts -shards 4 -placement component -listen localhost:4432
//
// See the protocol comment in internal/serve for the request/response
// shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/admin"
	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		programPath = flag.String("program", "", "path to the Datalog¬ program (required unless -restore)")
		inputPath   = flag.String("input", "", "path to the initial instance (default: empty instance)")
		restorePath = flag.String("restore", "", "restore state from a calmd snapshot instead of -program/-input")
		listenAddr  = flag.String("listen", "", "serve the protocol on this TCP address (default: stdin/stdout)")
		shardCount  = flag.Int("shards", 0, "run as a sharded cluster with this many shards (0 = single node)")
		placement   = flag.String("placement", "hash", "shard placement strategy for -shards: hash or component")
		writeQueue  = flag.Int("write-queue", 0, "bound of the shared write queue (0 = default 256)")
		maxBatch    = flag.Int("max-batch", 0, "max deltas per group commit (0 = default 64)")
		pipeline    = flag.Int("pipeline", 0, "max in-flight requests per connection (0 = default 64)")
		snapshotDir = flag.String("snapshot-dir", "", "confine snapshot ops to bare file names inside this directory")
		metricsPath = flag.String("metrics", "", `write incr.*/srv.* engine metrics as JSON to this file on exit ("-" = stdout, with -listen)`)
		tracePath   = flag.String("trace", "", `write structured JSONL maintenance events to this file ("-" = stdout, with -listen)`)
		adminAddr   = flag.String("admin", "", "serve the admin endpoint (/metrics /healthz /trace /debug/pprof) on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if err := checkArgs(flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "calmd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := checkFlags(*shardCount, *restorePath, *listenAddr, *tracePath, *metricsPath); err != nil {
		fatal(err)
	}

	var reg *obs.Registry
	if *metricsPath != "" || *adminAddr != "" {
		reg = obs.NewRegistry()
	}
	// Two tracers, one destination each: -trace streams incr's events,
	// and -admin's /trace reads a ring of request spans.
	var tracer *obs.Tracer
	if *adminAddr != "" {
		tracer = obs.NewTracer(0, false)
	}
	events, closeTrace, err := obs.OpenTrace(*tracePath)
	if err != nil {
		fatal(err)
	}
	// finish flushes -trace and dumps -metrics; every way out of main
	// that is not already a failure runs it.
	finish := obs.Finisher(closeTrace, reg, *metricsPath, fatal)

	opts := incr.Options{Reg: reg, Tracer: events}

	serveOpts := serve.Options{
		WriteQueue:  *writeQueue,
		MaxBatch:    *maxBatch,
		Pipeline:    *pipeline,
		SnapshotDir: *snapshotDir,
		Reg:         reg,
	}

	if *shardCount > 0 {
		err := runCluster(*shardCount, *placement, *programPath, *inputPath,
			*listenAddr, *adminAddr, serveOpts, reg, tracer)
		finish()
		if err != nil {
			fatal(err)
		}
		return
	}

	m, err := buildMaterialization(*programPath, *inputPath, *restorePath, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "calmd: serving %d facts at seq %d\n", m.Len(), m.Seq())

	serveOpts.Tracer = tracer // the cluster hands its router the tracer itself
	core := serve.NewCore(m, serveOpts)
	if *adminAddr != "" {
		adm, err := admin.Start(*adminAddr, admin.Options{
			Reg:          reg,
			Tracer:       tracer,
			BeforeScrape: epochAgeHook(reg),
			Health: func() (bool, any) {
				age := epochAge(reg)
				return true, map[string]any{
					"ok": true, "mode": "single", "seq": core.Seq(),
					"epoch_age_ns": age,
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer adm.Close()
		fmt.Fprintf(os.Stderr, "calmd: admin on http://%s\n", adm.Addr())
	}
	err = serveOn(core, *listenAddr)
	core.Close()
	finish()
	if err != nil {
		fatal(err)
	}
}

// checkFlags refuses the flag combinations calmd cannot honour. main
// calls it before it opens any file, so a refused run leaves a -trace
// or -metrics file as it found it.
func checkFlags(shards int, restorePath, listenAddr, tracePath, metricsPath string) error {
	switch {
	case shards > 0 && restorePath != "":
		return fmt.Errorf("-restore is not supported with -shards (snapshots are per-shard; restore each shard endpoint directly)")
	case shards > 0 && tracePath != "":
		return fmt.Errorf("-trace is not supported with -shards (per-shard event streams interleave nondeterministically)")
	case listenAddr == "" && tracePath == "-":
		return fmt.Errorf("-trace - needs -listen (without it the protocol answers on stdout)")
	case listenAddr == "" && metricsPath == "-":
		return fmt.Errorf("-metrics - needs -listen (without it the protocol answers on stdout)")
	}
	return nil
}

// serveOn runs the handler's sessions — a core's or the router's, the
// same loop either way: one over stdio, or one per connection accepted
// on listenAddr.
func serveOn(h serve.Handler, listenAddr string) error {
	if listenAddr == "" {
		return h.Serve(os.Stdin, os.Stdout)
	}
	srv, err := serve.NewTCPServerFor(h, listenAddr, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "calmd: listening on %s\n", srv.Addr())
	return srv.Serve()
}

// runCluster boots the sharded deployment: a cluster of shard cores
// behind a router serving the same protocol on stdio or TCP.
func runCluster(shards int, placement, programPath, inputPath, listenAddr, adminAddr string,
	serveOpts serve.Options, reg *obs.Registry, tracer *obs.Tracer) error {
	place, err := cluster.ParsePlacement(placement)
	if err != nil {
		return err
	}
	prog, input, err := loadProgram(programPath, inputPath)
	if err != nil {
		return err
	}
	c, err := cluster.New(prog, input, cluster.Options{
		Shards:    shards,
		Placement: place,
		Serve:     serveOpts,
		Reg:       reg,
		Tracer:    tracer,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	plan := c.Plan()
	fmt.Fprintf(os.Stderr, "calmd: %d shards, %s placement, %s plan (%s)\n",
		shards, place, plan.Coordination, plan.Reason)

	if adminAddr != "" {
		ageHook := epochAgeHook(reg)
		adm, err := admin.Start(adminAddr, admin.Options{
			Reg:    reg,
			Tracer: tracer,
			BeforeScrape: func() {
				ageHook()
				c.PublishHealth()
			},
			Health: func() (bool, any) {
				logLen, hs := c.Health()
				ok := true
				for _, h := range hs {
					if h.Down {
						ok = false
					}
				}
				return ok, map[string]any{
					"ok": ok, "mode": "cluster", "shards": len(hs), "log": logLen,
					"plan": string(plan.Coordination), "health": hs,
					"epoch_age_ns": epochAge(reg),
				}
			},
		})
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(os.Stderr, "calmd: admin on http://%s\n", adm.Addr())
	}

	return serveOn(cluster.NewRouter(c), listenAddr)
}

// loadProgram reads and parses the program and optional initial
// instance.
func loadProgram(programPath, inputPath string) (*datalog.Program, *fact.Instance, error) {
	if programPath == "" {
		return nil, nil, fmt.Errorf("-program is required unless -restore is given")
	}
	src, err := os.ReadFile(programPath)
	if err != nil {
		return nil, nil, err
	}
	prog, err := datalog.ParseProgram(string(src))
	if err != nil {
		return nil, nil, err
	}
	input := fact.NewInstance()
	if inputPath != "" {
		data, err := os.ReadFile(inputPath)
		if err != nil {
			return nil, nil, err
		}
		input, err = fact.ParseInstance(string(data))
		if err != nil {
			return nil, nil, err
		}
	}
	return prog, input, nil
}

// buildMaterialization constructs the daemon state either from a
// snapshot or from a program plus optional initial instance.
func buildMaterialization(programPath, inputPath, restorePath string, opts incr.Options) (*incr.Materialization, error) {
	if restorePath != "" {
		if programPath != "" || inputPath != "" {
			return nil, fmt.Errorf("-restore is exclusive with -program/-input (the snapshot embeds the program)")
		}
		f, err := os.Open(restorePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return incr.Restore(f, opts)
	}
	prog, input, err := loadProgram(programPath, inputPath)
	if err != nil {
		return nil, err
	}
	return incr.New(prog, input, opts)
}

// epochAge returns wall-clock nanoseconds since the last epoch
// publication, or 0 before the first commit.
func epochAge(reg *obs.Registry) int64 {
	last := reg.Gauge(obs.SrvLastCommitUnixNs).Value()
	if last == 0 {
		return 0
	}
	return time.Now().UnixNano() - last
}

// epochAgeHook refreshes the srv.epoch_age_ns scrape-time gauge —
// run by the admin server before each /metrics and /healthz render,
// so the serving hot path never touches the clock for it.
func epochAgeHook(reg *obs.Registry) func() {
	return func() {
		reg.Gauge(obs.SrvEpochAgeNs).Set(epochAge(reg))
	}
}

// checkArgs refuses positional arguments: calmd takes none, so a stray
// one is a mistake to report, not a word to ignore.
func checkArgs(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "calmd: %v\n", err)
	os.Exit(1)
}
