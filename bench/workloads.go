package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the line BENCHMARK.json records for the workload.
	why string
	// counts names what throughput_per_s counts.
	counts string
	// ops names the workload's two classes of unit operation, which
	// op1_* and op2_* time separately; tail says what *_tail_us reads.
	ops  [2]string
	tail string
	// setup builds the workload up to ready and returns its teardown:
	// what setup_s times from process start.
	setup func(seed int64) (teardown func(), err error)
	// measure runs the end-to-end protocol for about budget, calling
	// between after every repetition (the caller's set-up probes run
	// there, spread over the run like every other sample).
	measure func(seed int64, budget time.Duration, between func()) (*result, error)
	// probe is the traced run: the layers this workload exercises,
	// measured on its own inputs.
	probe probeFunc
}

// estimate is one metric's value next to what it was taken over: the
// readings per block, cycle or pass that the report summarizes as
// n/min/median/max, and how many exact samples those were cut from.
type estimate struct {
	value   float64
	over    []float64
	samples int
}

// result is what one end-to-end measurement produced. p50 and tail are
// per op class, in microseconds.
type result struct {
	attempted, failed int
	throughput        estimate
	p50, tail         [2]estimate
	heapMB            float64
	notes             []string
	extra             map[string]float64
}

func (r *result) setExtra(k string, v float64) {
	if r.extra == nil {
		r.extra = map[string]float64{}
	}
	r.extra[k] = v
}

// lateLimitUs flags an open-loop run whose pacer itself ran late: above
// it the latency figures include generator delay.
const lateLimitUs = 100

// figures reports an open-loop phase: what was sent and answered,
// latency from each request's due time by class over pooled exact
// samples, and how late the pacer itself ran, with the note that flags
// a pacer too late for the latencies to be the server's.
func (o *openStats) figures() (map[string]float64, string) {
	rd := o.pick(func(write bool) bool { return !write })
	wr := o.pick(func(write bool) bool { return write })
	late := samples(o.late).sorted()
	f := map[string]float64{
		"sent": float64(o.sent()), "ok": float64(o.ok), "failed": float64(o.sent() - o.ok),
		"read_p50_us": rd.us(0.50), "read_p99_us": rd.us(0.99),
		"write_p50_us": wr.us(0.50), "write_p99_us": wr.us(0.99),
		"late_p99_us": late.us(0.99), "late_max_us": late.us(1),
	}
	note := ""
	if late.us(0.99) > lateLimitUs {
		note = fmt.Sprintf("open loop: the pacer's own p99 lateness is %.0f us (limit %d); its latencies include generator delay", late.us(0.99), lateLimitUs)
	}
	return f, note
}

// liveHeapMB is the heap in use after a collection, taken while the
// workload's final state is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// seedRng derives an independent generator per (seed, purpose), so
// adding an input to one workload never shifts another's.
func seedRng(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed*2654435761 + int64(h.Sum64()>>1)))
}

// config sizes every workload. The full configuration is what
// BENCHMARK.json measures; the small one is for the package's tests.
type config struct {
	serveRead, serveWrite, clusterGather servingCfg
	datalog                              datalogCfg
	netsim                               netsimCfg
	explore                              exploreCfg
	// traceOps is how many requests a traced serial replay sends at
	// each depth.
	traceOps int
}

func fullConfig() config {
	return config{
		serveRead:     servingCfg{chain: 64, readFrac: 0.90, rate: 2000},
		serveWrite:    servingCfg{chain: 64, readFrac: 0.20, rate: 1000},
		clusterGather: servingCfg{chain: 128, readFrac: 0.80, rate: 750, shards: 4},
		datalog: datalogCfg{
			chains:  []int{32, 64, 128, 256},
			randoms: []int{40, 80, 160, 240},
			grids:   []int{6, 10, 14, 18},
			qtcs:    []int{40, 80, 120},
		},
		netsim:   netsimCfg{small: 32, smallRuns: 12, large: 128, largeRuns: 5},
		explore:  exploreCfg{plans: 32, chunk: 4},
		traceOps: 2000,
	}
}

func smallConfig() config {
	return config{
		serveRead:     servingCfg{chain: 16, readFrac: 0.90, rate: 1000},
		serveWrite:    servingCfg{chain: 16, readFrac: 0.20, rate: 500},
		clusterGather: servingCfg{chain: 32, readFrac: 0.80, rate: 400, shards: 4},
		datalog: datalogCfg{
			chains:  []int{16, 32},
			randoms: []int{20, 40},
			grids:   []int{4, 6},
			qtcs:    []int{20},
		},
		netsim:   netsimCfg{small: 8, smallRuns: 3, large: 16, largeRuns: 2},
		explore:  exploreCfg{plans: 4, chunk: 2},
		traceOps: 200,
	}
}

// probeFunc is a workload's traced run: it files the layer figures in sh
// and what it attempted and what failed in res.
type probeFunc func(seed int64, budget time.Duration, rec *recorder, sh sheet, res *result) error

func workloads(c config) []*workload {
	serving := func(name, why string, cfg servingCfg, probe probeFunc) *workload {
		return &workload{
			name: name, why: why, counts: "ok requests (closed loop, 2 connections x window 16)",
			ops:  [2]string{"read (serial replay, window 1, round trip at reference speed, pooled exact samples)", "write (same replay)"},
			tail: fmt.Sprintf("p%.0f of the same samples", 100*servingTail),
			setup: func(seed int64) (func(), error) {
				st, err := startStack(cfg, seed, nil, nil)
				if err != nil {
					return nil, err
				}
				return st.stop, nil
			},
			measure: func(seed int64, budget time.Duration, between func()) (*result, error) {
				return measureServing(cfg, seed, budget, between)
			},
			probe: probe,
		}
	}
	// Building the batch is a batch workload's set-up, measureBatch its
	// protocol.
	batched := func(name, why, counts string, ops [2]string, build func(seed int64) (*batch, error), probe probeFunc) *workload {
		return &workload{
			name: name, why: why, counts: counts, ops: ops, tail: "slowest task of the class in a pass",
			setup: func(seed int64) (func(), error) { _, err := build(seed); return func() {}, err },
			measure: func(seed int64, budget time.Duration, between func()) (*result, error) {
				b, err := build(seed)
				if err != nil {
					return nil, err
				}
				return measureBatch(b, seed, budget, between)
			},
			probe: probe,
		}
	}
	servingProbe := func(cfg servingCfg) probeFunc {
		return func(seed int64, budget time.Duration, rec *recorder, sh sheet, res *result) error {
			return probeServing(cfg, c.traceOps, budget/6, seed, rec, sh, res)
		}
	}
	return []*workload{
		serving("serve-read", "single-node calmd over loopback, 90% reads: session, epoch pin and memoized render do the work, incr almost none; op1 read, op2 write",
			c.serveRead, servingProbe(c.serveRead)),
		serving("serve-write", "same stack, 80% insert/retract churn: incr.Apply and a cold sort+render after every commit dominate; op1 read, op2 write",
			c.serveWrite, servingProbe(c.serveWrite)),
		serving("cluster-gather", "4-shard cluster through the router, 80% reads: log append, pumps, fences and the gather merge, which serve-* bypass; op1 read, op2 write",
			c.clusterGather, func(seed int64, budget time.Duration, rec *recorder, sh sheet, res *result) error {
				return probeCluster(c.clusterGather, c.traceOps, budget/6, seed, rec, sh, res)
			}),
		batched("datalog-batch", "batch TC on chains, random graphs and grids plus stratified QTC: datalog and fact only, no serving code runs; op1 TC evaluation, op2 QTC evaluation",
			"derived facts", [2]string{"TC evaluation (Program.Fixpoint on one graph)", "stratified QTC evaluation (EvalStratified on one graph)"},
			func(seed int64) (*batch, error) { db, err := newDatalogBatch(c.datalog, seed); return &db.batch, err },
			func(seed int64, _ time.Duration, rec *recorder, sh sheet, res *result) error {
				return probeDatalog(c.datalog, seed, rec, sh, res)
			}),
		batched("netsim-ring", "event simulator, gossip TC over ring neighbours: Stepper.Step is ~90% of time and the event heap stays tiny; op1 Sim.Run on a small ring, op2 on a large one",
			"delivered messages (simulated statistic) per host second", [2]string{"Sim.Run on a small ring", "Sim.Run on a large ring"},
			func(seed int64) (*batch, error) { nb, err := newNetsimBatch(c.netsim, seed); return &nb.batch, err },
			func(seed int64, _ time.Duration, rec *recorder, sh sheet, res *result) error {
				return probeNetsim(c.netsim, seed, rec, sh, res)
			}),
		batched("explore-faults", "schedule explorer on the tick engine under seeded fault plans, the paper-facing use; op1 a chunk of plans for the monotone strategy, op2 for a non-monotone one",
			"explored schedules", [2]string{"ExploreStrategy over one chunk of fault plans, monotone strategy (broadcast)", "same, non-monotone strategy (absence, domainreq)"},
			func(seed int64) (*batch, error) { eb, err := newExploreBatch(c.explore, seed); return &eb.batch, err },
			func(seed int64, _ time.Duration, rec *recorder, sh sheet, res *result) error {
				return probeExplore(c.explore, seed, rec, sh, res)
			}),
	}
}
