// Package load is a seeded load generator for the calmd wire
// protocol. It drives N concurrent TCP connections against a daemon,
// each pipelining a reproducible mix of reads (query/stats) and
// writes (insert/retract churn in a per-connection edge namespace),
// and reports throughput plus p50/p90/p99/p999 latency split by op
// class. Latencies accumulate in obs.LatencyHist log-scale histograms
// (per connection, merged exactly at the end), the same instrument the
// server publishes on /metrics — so client-observed and server-side
// quantiles are directly comparable (calmload -metrics-url does that
// cross-check).
//
// The generator is the measurement half of the PR-7 serving-core
// claim: a pipelined multi-connection workload on a read-heavy mix
// must beat the serial single-connection ping-pong baseline (one
// request in flight, one flush per request — the pre-epoch daemon's
// effective service discipline) by a wide margin, because reads no
// longer wait behind writes and responses coalesce into shared
// flushes.
package load

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// okPrefix starts every success response ("ok" is the first field of
// the wire format).
var okPrefix = []byte(`{"ok":true`)

// Config parameterizes one load run. Zero fields take the defaults
// noted below.
type Config struct {
	Addr string // calmd TCP address (required unless Addrs is set)
	// Addrs, when non-empty, is a set of endpoints: connection i dials
	// Addrs[i % len(Addrs)]. With per-shard endpoints of a sharded
	// deployment this is placement-aware ("tenant-routed") load: each
	// connection's private write namespace stays on one shard. A
	// single-element Addrs is byte-identical in behavior to Addr.
	Addrs    []string
	Conns    int           // concurrent connections (default 4)
	Window   int           // max in-flight requests per connection; 1 = serial ping-pong (default 32)
	Duration time.Duration // send window per connection (default 2s)
	Seed     int64         // base RNG seed; conn i derives Seed + i*7919
	ReadFrac float64       // fraction of requests that are reads (default 0.9)
	Nodes    int           // churn nodes per connection's write namespace (default 4)
}

func (c Config) addrs() []string {
	if len(c.Addrs) > 0 {
		return c.Addrs
	}
	return []string{c.Addr}
}

func (c Config) conns() int {
	if c.Conns > 0 {
		return c.Conns
	}
	return 4
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 32
}

func (c Config) duration() time.Duration {
	if c.Duration > 0 {
		return c.Duration
	}
	return 2 * time.Second
}

func (c Config) readFrac() float64 {
	if c.ReadFrac > 0 {
		return c.ReadFrac
	}
	return 0.9
}

func (c Config) nodes() int {
	if c.Nodes > 1 {
		return c.Nodes
	}
	return 4
}

// Result is one run's aggregate measurement.
type Result struct {
	Conns       int     `json:"conns"`
	Window      int     `json:"window"`
	ReadFrac    float64 `json:"read_frac"`
	Seed        int64   `json:"seed"`
	DurationSec float64 `json:"duration_sec"`

	Ops    int64 `json:"ops"`
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Errors int64 `json:"errors"` // ok:false responses (protocol errors)

	OpsPerSec float64 `json:"ops_per_sec"`
	// Quantiles are estimated from merged log-scale histograms
	// (obs.LatencyHist, <=6.25% relative bucket-midpoint error), not
	// from sorted samples: the instrument matches the server's, and the
	// estimate is stable under merge order.
	P50Ns      int64 `json:"p50_ns"`
	P90Ns      int64 `json:"p90_ns"`
	P99Ns      int64 `json:"p99_ns"`
	P999Ns     int64 `json:"p999_ns"`
	ReadP50Ns  int64 `json:"read_p50_ns"`
	ReadP90Ns  int64 `json:"read_p90_ns"`
	ReadP99Ns  int64 `json:"read_p99_ns"`
	ReadP999Ns int64 `json:"read_p999_ns"`

	WriteP50Ns  int64 `json:"write_p50_ns"`
	WriteP90Ns  int64 `json:"write_p90_ns"`
	WriteP99Ns  int64 `json:"write_p99_ns"`
	WriteP999Ns int64 `json:"write_p999_ns"`
}

// Comparison pairs a pipelined multi-connection run with the serial
// single-connection baseline over the same mix and duration.
type Comparison struct {
	Baseline  *Result `json:"baseline"`
	Pipelined *Result `json:"pipelined"`
	// Speedup is pipelined ops/sec over baseline ops/sec — the PR-7
	// acceptance gate requires >= 2 on read-heavy mixes.
	Speedup float64 `json:"speedup"`
}

// connStats accumulates one connection's measurements.
type connStats struct {
	readLat  obs.LatencyHist
	writeLat obs.LatencyHist
	errors   int64
}

// Run drives the configured workload and blocks until every
// connection has drained its in-flight responses.
func Run(cfg Config) (*Result, error) {
	if cfg.Addr == "" && len(cfg.Addrs) == 0 {
		return nil, errors.New("load: Config.Addr (or Addrs) is required")
	}
	n := cfg.conns()
	stats := make([]*connStats, n)
	errs := make([]error, n)
	start := time.Now()
	deadline := start.Add(cfg.duration())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			stats[id], errs[id] = runConn(cfg, id, deadline)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Conns:       n,
		Window:      cfg.window(),
		ReadFrac:    cfg.readFrac(),
		Seed:        cfg.Seed,
		DurationSec: elapsed.Seconds(),
	}
	reads, writes := &obs.LatencyHist{}, &obs.LatencyHist{}
	for _, st := range stats {
		res.Errors += st.errors
		reads.Merge(&st.readLat)
		writes.Merge(&st.writeLat)
	}
	all := &obs.LatencyHist{}
	all.Merge(reads)
	all.Merge(writes)
	res.Reads = reads.Count()
	res.Writes = writes.Count()
	res.Ops = res.Reads + res.Writes
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}
	res.P50Ns, res.P90Ns, res.P99Ns, res.P999Ns = quantiles(all)
	res.ReadP50Ns, res.ReadP90Ns, res.ReadP99Ns, res.ReadP999Ns = quantiles(reads)
	res.WriteP50Ns, res.WriteP90Ns, res.WriteP99Ns, res.WriteP999Ns = quantiles(writes)
	return res, nil
}

// Compare runs the serial single-connection baseline, then the
// configured (multi-connection, pipelined) workload, against the same
// server.
func Compare(cfg Config) (*Comparison, error) {
	base := cfg
	base.Conns = 1
	base.Window = 1
	b, err := Run(base)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	p, err := Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipelined: %w", err)
	}
	cmp := &Comparison{Baseline: b, Pipelined: p}
	if b.OpsPerSec > 0 {
		cmp.Speedup = p.OpsPerSec / b.OpsPerSec
	}
	return cmp, nil
}

// runConn opens one connection and pipelines requests until the
// deadline, then half-closes and drains the remaining responses.
// Request/response pairing relies on the protocol's per-connection
// ordering guarantee: a FIFO of send timestamps matches responses as
// they arrive.
func runConn(cfg Config, id int, deadline time.Time) (*connStats, error) {
	addrs := cfg.addrs()
	conn, err := net.Dial("tcp", addrs[id%len(addrs)])
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	type slot struct {
		start time.Time
		read  bool
	}
	window := cfg.window()
	q := make(chan slot, window)
	st := &connStats{}
	var readErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			s, ok := <-q
			if !ok {
				readErr = errors.New("response without a matching request")
				return
			}
			lat := time.Since(s.start)
			// Classify by prefix rather than full JSON decode: the field
			// order is part of the wire format ("ok" leads), and decoding
			// megabytes of response JSON on the shared CPU would measure
			// the client, not the server.
			if !bytes.HasPrefix(line, okPrefix) {
				st.errors++
			}
			if s.read {
				st.readLat.Observe(lat.Nanoseconds())
			} else {
				st.writeLat.Observe(lat.Nanoseconds())
			}
		}
		readErr = sc.Err()
	}()

	g := newGen(cfg, id)
	bw := bufio.NewWriter(conn)
	flushEvery := window / 2
	if flushEvery < 1 {
		flushEvery = 1
	}
	unflushed := 0
	var sendErr error
send:
	for time.Now().Before(deadline) {
		req, isRead := g.next()
		s := slot{start: time.Now(), read: isRead}
		select {
		case q <- s:
		default:
			// Window full: everything buffered must reach the server
			// before we block, or the responses we are waiting on can
			// never be produced.
			if err := bw.Flush(); err != nil {
				sendErr = err
				break send
			}
			select {
			case q <- s:
			case <-done:
				sendErr = errors.New("reader closed mid-run")
				break send
			}
		}
		bw.Write(req)
		bw.WriteByte('\n')
		unflushed++
		if unflushed >= flushEvery {
			if err := bw.Flush(); err != nil {
				sendErr = err
				break send
			}
			unflushed = 0
		}
	}
	if sendErr == nil {
		sendErr = bw.Flush()
	}
	close(q)
	// Half-close: the server sees EOF, drains in-flight work, and
	// closes its side, which ends the reader loop above.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	<-done
	if sendErr != nil {
		return nil, sendErr
	}
	if readErr != nil {
		return nil, readErr
	}
	return st, nil
}

// quantiles reads the standard latency quantiles off one histogram.
func quantiles(h *obs.LatencyHist) (p50, p90, p99, p999 int64) {
	return h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Quantile(0.999)
}
