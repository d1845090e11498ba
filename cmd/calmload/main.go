// Command calmload is a seeded load generator for calmd's concurrent
// serving core. It drives N pipelined TCP connections with a
// reproducible read/write mix and reports ops/sec plus
// p50/p90/p99/p999 latency (from merged obs.LatencyHist histograms,
// the same instrument the server scrapes on /metrics); with -compare
// it also runs the serial single-connection ping-pong baseline and
// reports the speedup, which is the PR-7 acceptance number (>= 2x on
// read-heavy mixes). With -metrics-url it scrapes the server's admin
// /metrics after the run and prints server-side srv_read_ns /
// srv_write_ns quantiles next to the client-observed ones — the
// server-side time is a subset of the client round trip, so a server
// quantile far above the client one flags a broken instrument.
//
// With no -addr it boots its own in-process daemon (transitive
// closure over a seeded chain graph) on a loopback port, so a single
// command measures the full TCP serving stack. -addr accepts a
// comma-separated endpoint list — connection i dials endpoint i mod N,
// the placement-aware client path against a sharded deployment — and
// -self-shards boots an in-process sharded cluster and drives its
// per-shard endpoints (or its router, with -via-router):
//
//	calmload -compare -duration 2s
//	calmload -addr localhost:4432 -conns 8 -window 64
//	calmload -addr localhost:4432,localhost:4433 -conns 8
//	calmload -self-shards 4 -conns 8 -duration 2s
//	calmload -smoke -duration 300ms   # CI gate: ops > 0, errors == 0
//
// -format gobench emits benchmark-formatted lines, the form the
// PERF.7–9 figures were recorded in (commits 27ec915 to 6c318c3);
// the repository's benchmark is go run ./bench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/load"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "", "calmd TCP address(es), comma-separated; conn i dials addr i mod N (default: boot an in-process daemon)")
		chain      = flag.Int("self-chain", 16, "chain-graph length seeding the in-process daemon")
		shards     = flag.Int("self-shards", 0, "boot an in-process sharded cluster with this many shards and drive its per-shard endpoints")
		placement  = flag.String("placement", "component", "placement strategy for -self-shards: hash or component")
		viaRouter  = flag.Bool("via-router", false, "with -self-shards, drive the cluster router instead of the per-shard endpoints")
		conns      = flag.Int("conns", 4, "concurrent connections")
		window     = flag.Int("window", 32, "max in-flight requests per connection (1 = serial ping-pong)")
		duration   = flag.Duration("duration", 2*time.Second, "send window per run")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		readFrac   = flag.Float64("read-frac", 0.9, "fraction of requests that are reads")
		compare    = flag.Bool("compare", false, "also run the serial 1-connection baseline and report speedup")
		smoke      = flag.Bool("smoke", false, "exit non-zero unless ops > 0 and protocol errors == 0")
		format     = flag.String("format", "json", "output format: json or gobench")
		metricsURL = flag.String("metrics-url", "", "scrape this admin /metrics URL after the run and cross-check server-side latency quantiles")
		benchName  = flag.String("bench-name", "", "with -format gobench, override the benchmark name (default: derived from run shape)")
		out        = flag.String("out", "-", `output file ("-" = stdout)`)
	)
	flag.Parse()

	var targets []string
	switch {
	case *addr != "":
		targets = strings.Split(*addr, ",")
	case *shards > 0:
		place, err := cluster.ParsePlacement(*placement)
		if err != nil {
			fatal(err)
		}
		eps, shutdown, err := load.StartCluster(*chain, *shards, place, serve.Options{})
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		if *viaRouter {
			targets = []string{eps.Router}
		} else {
			targets = eps.Shards
		}
		fmt.Fprintf(os.Stderr, "calmload: in-process cluster: router %s, shards %s\n",
			eps.Router, strings.Join(eps.Shards, ","))
	default:
		target, shutdown, err := load.StartSelf(*chain, serve.Options{})
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		targets = []string{target}
		fmt.Fprintf(os.Stderr, "calmload: in-process daemon on %s\n", target)
	}

	cfg := load.Config{
		Addrs:    targets,
		Conns:    *conns,
		Window:   *window,
		Duration: *duration,
		Seed:     *seed,
		ReadFrac: *readFrac,
	}

	var payload any
	var results []*load.Result
	if *compare {
		cmp, err := load.Compare(cfg)
		if err != nil {
			fatal(err)
		}
		payload = cmp
		results = []*load.Result{cmp.Baseline, cmp.Pipelined}
	} else {
		res, err := load.Run(cfg)
		if err != nil {
			fatal(err)
		}
		payload = res
		results = []*load.Result{res}
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			fatal(err)
		}
	case "gobench":
		writeGobench(w, results, *benchName)
	default:
		fatal(fmt.Errorf("unknown -format %q", *format))
	}

	if *metricsURL != "" {
		crossCheck(*metricsURL, results[len(results)-1])
	}

	if *smoke {
		for _, r := range results {
			if r.Ops == 0 || r.Errors != 0 {
				fatal(fmt.Errorf("smoke gate failed: ops=%d errors=%d (conns=%d window=%d)",
					r.Ops, r.Errors, r.Conns, r.Window))
			}
		}
		fmt.Fprintln(os.Stderr, "calmload: smoke gate passed")
	}
}

// writeGobench renders results in `go test -bench` line format (go run
// ./bench measures the same loop end to end). Names must not end in
// -<digits> (benchmark tooling strips a GOMAXPROCS suffix); run shape
// lands in the conns/window metric columns instead. nameOverride
// replaces the derived name — the shard sweep uses it to label one
// row per shard count (BenchmarkCalmloadShards<n>).
func writeGobench(w *os.File, results []*load.Result, nameOverride string) {
	fmt.Fprintln(w, "pkg: repro/cmd/calmload")
	for _, r := range results {
		name := "BenchmarkCalmloadPipelined"
		if r.Conns == 1 && r.Window == 1 {
			name = "BenchmarkCalmloadSerial"
		}
		if nameOverride != "" {
			name = nameOverride
		}
		nsPerOp := int64(0)
		if r.Ops > 0 {
			nsPerOp = int64(r.DurationSec * 1e9 / float64(r.Ops))
		}
		fmt.Fprintf(w, "%s %d %d ns/op %.0f ops/s %d p50-ns %d p90-ns %d p99-ns %d p999-ns %d conns %d window %d errors\n",
			name, r.Ops, nsPerOp, r.OpsPerSec, r.P50Ns, r.P90Ns, r.P99Ns, r.P999Ns, r.Conns, r.Window, r.Errors)
	}
}

// crossCheck scrapes an admin /metrics endpoint and prints the
// server-side srv_read_ns / srv_write_ns quantiles next to the
// client-observed ones. Server-side service time is a strict subset
// of the client round trip, so a server quantile exceeding the client
// one (beyond histogram bucketing error) is flagged as a warning.
func crossCheck(url string, r *load.Result) {
	qs, err := scrapeQuantiles(url)
	if err != nil {
		fatal(fmt.Errorf("metrics-url: %w", err))
	}
	fmt.Fprintf(os.Stderr, "calmload: server quantiles from %s\n", url)
	type row struct {
		family string
		client [4]int64
	}
	rows := []row{
		{"srv_read_ns", [4]int64{r.ReadP50Ns, r.ReadP90Ns, r.ReadP99Ns, r.ReadP999Ns}},
		{"srv_write_ns", [4]int64{r.WriteP50Ns, r.WriteP90Ns, r.WriteP99Ns, r.WriteP999Ns}},
	}
	labels := [][2]string{{"0.5", "p50"}, {"0.9", "p90"}, {"0.99", "p99"}, {"0.999", "p999"}}
	for _, rw := range rows {
		fam, ok := qs[rw.family]
		if !ok {
			fmt.Fprintf(os.Stderr, "calmload:   %s: no quantile family in scrape (server built without -admin registry?)\n", rw.family)
			continue
		}
		for i, q := range labels {
			srv, ok := fam[q[0]]
			if !ok {
				continue
			}
			cli := rw.client[i]
			note := ""
			// 1.25x slack: both sides are log-scale histograms with
			// <=12.5% bucket width, and the scrape window is wider than
			// the run window.
			if cli > 0 && float64(srv) > 1.25*float64(cli) {
				note = "  WARN server-side exceeds client round trip"
			}
			fmt.Fprintf(os.Stderr, "calmload:   %s %s: server %d ns, client %d ns%s\n",
				rw.family, q[1], srv, cli, note)
		}
	}
}

// scrapeQuantiles fetches a Prometheus text exposition and collects
// every `<family>_quantile{q="..."} <value>` gauge into
// family -> q -> value.
func scrapeQuantiles(url string) (map[string]map[string]int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, `_quantile{q="`)
		if !ok {
			continue
		}
		q, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(val), "%g", &v); err != nil {
			continue
		}
		fam := out[name]
		if fam == nil {
			fam = map[string]int64{}
			out[name] = fam
		}
		fam[q] = int64(v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "calmload: %v\n", err)
	os.Exit(1)
}
