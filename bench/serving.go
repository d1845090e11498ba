package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/serve"
)

// servingCfg sizes one serving workload: a calmd stack over loopback
// maintaining transitive closure on a chain, driven by the seeded
// request streams of gen.go.
type servingCfg struct {
	chain    int     // base chain nodes (split over the shards when sharded)
	readFrac float64 // share of requests that are reads
	rate     float64 // open-loop offered load, requests per second
	shards   int     // 0: single node; >0: cluster behind the router
}

// stack is one running serving deployment and the facts it started
// from.
type stack struct {
	cfg  servingCfg
	prog *datalog.Program
	base *fact.Instance
	addr string
	core *serve.Core      // single node only
	cl   *cluster.Cluster // sharded only
	stop func()
}

// startStack is the serving workloads' set-up: parse the program,
// build the base, materialize it, bring the listener up. reg and
// tracer are nil for every end-to-end measurement.
func startStack(cfg servingCfg, seed int64, reg *obs.Registry, tracer *obs.Tracer) (*stack, error) {
	prog, err := datalog.ParseProgram(tcProgram)
	if err != nil {
		return nil, err
	}
	st := &stack{cfg: cfg, prog: prog}
	opts := serve.Options{Reg: reg, Tracer: tracer}
	var h serve.Handler
	var closeState func()
	if cfg.shards > 0 {
		if st.base, err = shardedChains(seed, cfg.chain, cfg.shards); err != nil {
			return nil, err
		}
		st.cl, err = cluster.New(prog, st.base, cluster.Options{
			Shards: cfg.shards, Placement: cluster.PlaceComponent, Serve: opts, Reg: reg, Tracer: tracer,
		})
		if err != nil {
			return nil, err
		}
		if !st.cl.Plan().Partitioned {
			st.cl.Close()
			return nil, fmt.Errorf("cluster plan is not partitioned: %s", st.cl.Plan().Reason)
		}
		h, closeState = cluster.NewRouter(st.cl), st.cl.Close
	} else {
		st.base = chainGraph(seedRng(seed, "chain"), "n", cfg.chain)
		m, err := incr.New(prog, st.base, incr.Options{})
		if err != nil {
			return nil, err
		}
		st.core = serve.NewCore(m, opts)
		h, closeState = st.core, st.core.Close
	}
	srv, err := serve.NewTCPServerFor(h, "127.0.0.1:0", nil)
	if err != nil {
		closeState()
		return nil, err
	}
	srv.Start()
	st.addr = srv.Addr()
	st.stop = func() {
		srv.Close()
		closeState()
	}
	return st, nil
}

// survivingBase is the base the deployment must hold once the streams
// have run: what it started from plus every edge inserted and not
// retracted.
func (st *stack) survivingBase(streams []*stream) (*fact.Instance, error) {
	base := st.base.Clone()
	for _, s := range streams {
		fs, err := fact.ParseFacts(s.survivors())
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			base.Add(f)
		}
	}
	return base, nil
}

// oracleReads are the reads the final state is judged by: every fact,
// and the maintained relation.
var oracleReads = []request{
	{line: []byte(`{"op":"facts"}`), req: serve.Request{Op: "facts"}},
	{line: []byte(`{"op":"query","rel":"T"}`), req: serve.Request{Op: "query", Rel: "T"}},
}

// checkFinal is the serving oracle: after the streams have run, the
// deployment's `facts` and `query T` response bytes must equal
// serve.ReadResponse over a fresh materialization of the surviving
// base.
func (st *stack) checkFinal(streams []*stream) error {
	base, err := st.survivingBase(streams)
	if err != nil {
		return err
	}
	m, err := incr.New(st.prog, base, incr.Options{})
	if err != nil {
		return err
	}
	if st.cl != nil {
		st.cl.Quiesce()
	}
	pp, err := dialPingPong(st.addr)
	if err != nil {
		return err
	}
	defer pp.close()
	ep := m.Epoch()
	for _, rq := range oracleReads {
		want, err := serve.ReadResponse(ep, rq.req).Encode()
		if err != nil {
			return err
		}
		got, err := pp.do(rq.line)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("oracle: %s: served %d bytes differ from the %d bytes of a fresh materialization", rq.line, len(got), len(want))
		}
	}
	return nil
}

// Shares of the measuring budget. A run alternates closed-loop
// repetitions (throughput) with serial replays (latency), then ends
// with an open loop whose latencies are reported but not gated.
// Repetitions are short and interleaved, and each cycle ends with a
// round of the speedometer (speed.go), because the reference box
// changes speed from second to second and from minute to minute: every
// reading is put at reference speed by the rounds either side of its
// cycle, so a slow spell moves the slowdown, not the metric.
//
// The gated latency is the serial replay's, not the open loop's. At
// the open loop's rates both cores idle between requests, and on a
// 2-vCPU virtual machine every request then pays thread and vCPU
// wake-ups of 100 to 300 us that swamp the 20 to 400 us the program
// itself takes: measured, the open-loop p50 of one commit ranged from
// 157 to 2668 us over ten runs. A window-1 replay keeps both ends hot.
// The serial replay gets the largest share so that the rarer op class
// of every mix still collects thousands of samples.
//
// Closed loop and serial replay both run on one P, client and server
// sharing it. The reference box does not sustain two busy cores: the
// host takes the second vCPU away for minutes at a time (steal time
// grows to 4% of all CPU time over a session of two-core runs), and
// two-P closed-loop throughput of one commit then ranged from 1.8k to
// 15k req/s over ten runs while one-P latency in the same runs moved
// 7%. On a calm box the one-P closed loop reads within 10% of the
// two-P one (the load generator shares the process, so the second core
// mostly ran the client). What this gives up is any cross-core
// contention effect; what it keeps is CPU cost per request.
const (
	closedShare = 0.30
	serialShare = 0.48
	openShare   = 0.14
	cycles      = 9
	// servingTail is the percentile op*_tail_us reads on a serving
	// workload. Not p99: pooled over 4 600 to 35 000 samples at reference
	// speed, ten runs' write p99 still spread 19 to 25% (interquartile
	// range over median) where their p95 spread 8 to 11%, and a gate
	// that wide gates nothing. p99 is reported next to it, ungated.
	servingTail = 0.95
)

// measureServing runs the end-to-end protocol for one serving
// workload: a warm-up cycle, then cycles of one closed-loop repetition,
// one serial replay and one speedometer round, with between called
// after each, then the open loop at the workload's fixed rate, the
// oracle, and the live heap with the server still up.
func measureServing(cfg servingCfg, seed int64, budget time.Duration, between func()) (*result, error) {
	st, err := startStack(cfg, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	streams := make([]*stream, loadConns)
	for i := range streams {
		streams[i] = newStream(seed, i, cfg.readFrac)
	}
	// The serial replay has a namespace of its own, so its writes
	// never collide with the closed loop's.
	serial := newStream(seed, loadConns, cfg.readFrac)
	r := &result{}
	// Everything below is at reference speed: block rates of the closed
	// loop, and the serial replay's round trips by class (reads, writes)
	// with each cycle's percentiles for the report's summary.
	var rates []float64
	var lat [2]samples
	var p50s, tails [2][]float64
	restoreProcs := onOneP()
	defer restoreProcs()
	speed := newSpeedometer()
	defer speed.stop()
	var before float64 // the slowdown the previous cycle ended on
	for i := 0; i <= cycles; i++ {
		scale := 1.0 / cycles
		if i == 0 {
			scale /= 2 // warm-up cycle, not recorded
		}
		cs, err := closedLoop(st.addr, streams, time.Duration(float64(budget)*closedShare*scale))
		if err != nil {
			return nil, err
		}
		r.attempted += cs.sent
		r.failed += cs.sent - cs.ok
		trips, err := r.serialReplay(st.addr, serial, time.Duration(float64(budget)*serialShare*scale))
		if err != nil {
			return nil, err
		}
		after := speed.round()
		if slow := (before + after) / 2; i > 0 {
			for _, rate := range cs.rates {
				rates = append(rates, rate*slow)
			}
			r.throughput.samples += cs.ok
			for c, ts := range trips {
				for k := range ts {
					ts[k] = int64(float64(ts[k]) / slow)
				}
				lat[c] = append(lat[c], ts...)
				ts = ts.sorted()
				p50s[c], tails[c] = append(p50s[c], ts.us(0.50)), append(tails[c], ts.us(servingTail))
			}
		}
		before = after
		between()
	}
	r.setExtra("speed.slowdown", median(speed.rounds))
	r.setExtra("speed.alloc_us", median(speed.alloc))
	r.setExtra("speed.handoff_us", median(speed.handoff))
	r.throughput.value, r.throughput.over = median(rates), rates
	for c, l := range lat {
		l = l.sorted()
		tail, beyond := l.quantile(servingTail)
		r.p50[c] = estimate{value: l.us(0.50), over: p50s[c], samples: len(l)}
		r.tail[c] = estimate{value: float64(tail) / 1e3, over: tails[c], samples: len(l)}
		if _, b := l.quantile(0.99); b >= minBeyond {
			r.setExtra(fmt.Sprintf("op%d_p99_us", c+1), l.us(0.99))
		}
		// The contract wants every metric in every result line, so a
		// percentile with too little beyond it is flagged, not dropped.
		if beyond < minBeyond {
			r.notes = append(r.notes, fmt.Sprintf("op%d_tail_us: %d samples leave only %d beyond the percentile, fewer than the %d that make one", c+1, len(l), beyond, minBeyond))
		}
	}
	restoreProcs()
	ol, err := openLoop(st.addr, streams, cfg.rate, time.Duration(float64(budget)*openShare))
	if err != nil {
		return nil, err
	}
	r.attempted += ol.sent()
	r.failed += ol.sent() - ol.ok
	figures, note := ol.figures()
	for k, v := range figures {
		r.setExtra("open."+k, v)
	}
	if note != "" {
		r.notes = append(r.notes, note)
	}
	r.attempted++
	if err := st.checkFinal(append(streams, serial)); err != nil {
		r.failed++
		r.notes = append(r.notes, err.Error())
	}
	ol = nil
	r.heapMB = liveHeapMB()
	return r, nil
}

// serialReplay sends the stream's requests one at a time (window 1)
// for d and returns every round trip in nanoseconds by op class:
// reads 0, writes 1.
func (r *result) serialReplay(addr string, s *stream, d time.Duration) (trips [2]samples, err error) {
	pp, err := dialPingPong(addr)
	if err != nil {
		return trips, err
	}
	defer pp.close()
	deadline := time.Now().Add(d)
	err = pp.replay(r,
		func() (request, bool) {
			if !time.Now().Before(deadline) {
				return request{}, false
			}
			return s.next(), true
		},
		func(_ int, rq request, _ time.Time, d time.Duration, _ []byte) {
			class := 0
			if rq.write {
				class = 1
			}
			trips[class] = append(trips[class], d.Nanoseconds())
		})
	return trips, err
}

// onOneP drops to a single P and returns the call that restores the
// previous setting (harmless to call twice).
func onOneP() func() {
	old := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(old) }
}
