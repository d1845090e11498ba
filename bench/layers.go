package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/transducer"
)

// The traced run measures the layers the workload exercises, on the
// workload's own seeded inputs, and prints those. The benchmark
// contract wants every per-layer metric of BENCHMARK.json in the result
// line of every traced run, so there a metric of a layer the workload
// bypasses reads 0: the workload did no work in that layer.
//
// Every number here comes from timing a call into a public function
// from this directory, or from a value the public API already returns
// (incr.ApplyStats, Sim.Events, ExploreStats) or publishes through an
// existing Options.Reg. Nothing is added to the program.

var perLayerMetrics = []metricDef{
	// load: the harness's own open loop; validity of its numbers.
	{name: "load.sent", unit: "count", better: "higher"},
	{name: "load.ok", unit: "count", better: "higher"},
	{name: "load.failed", unit: "count", better: "lower"},
	{name: "load.late_p99_us", unit: "us", better: "lower"},
	{name: "load.late_max_us", unit: "us", better: "lower"},
	{name: "load.read_p50_us", unit: "us", better: "lower"},
	{name: "load.read_p99_us", unit: "us", better: "lower"},
	{name: "load.write_p50_us", unit: "us", better: "lower"},
	{name: "load.write_p99_us", unit: "us", better: "lower"},
	// serve: session, dispatch, epoch pin, memoized render.
	{name: "serve.tcp_read_us", unit: "us", better: "lower"},
	{name: "serve.tcp_write_us", unit: "us", better: "lower"},
	{name: "serve.handle_read_us", unit: "us", better: "lower"},
	{name: "serve.handle_write_us", unit: "us", better: "lower"},
	{name: "serve.session_self_us", unit: "us", better: "lower"},
	{name: "serve.read_warm_us", unit: "us", better: "lower"},
	{name: "serve.read_cold_us", unit: "us", better: "lower"},
	{name: "serve.memo_hit_share", unit: "ratio", better: "higher"},
	{name: "serve.encode_us", unit: "us", better: "lower"},
	{name: "serve.self_write_us", unit: "us", better: "lower"},
	// incr: counting and DRed maintenance.
	{name: "incr.apply_insert_us", unit: "us", better: "lower"},
	{name: "incr.apply_retract_us", unit: "us", better: "lower"},
	{name: "incr.epoch_us", unit: "us", better: "lower"},
	{name: "incr.derived_per_write", unit: "count", better: "lower"},
	{name: "incr.overdeleted_per_retract", unit: "count", better: "lower"},
	{name: "incr.rederived_share", unit: "ratio", better: "lower"},
	{name: "incr.support_updates_per_write", unit: "count", better: "lower"},
	{name: "incr.new_ms", unit: "ms", better: "lower"},
	// fact: parsing, storage, canonical rendering.
	{name: "fact.parse_us", unit: "us", better: "lower"},
	{name: "fact.render_us_per_kfact", unit: "us", better: "lower"},
	{name: "fact.add_ns", unit: "ns", better: "lower"},
	{name: "fact.bytes_per_fact", unit: "B", better: "lower"},
	{name: "fact.symbols", unit: "count", better: "lower"},
	// cluster: log, pumps, fences, gather.
	{name: "cluster.router_read_us", unit: "us", better: "lower"},
	{name: "cluster.router_write_us", unit: "us", better: "lower"},
	{name: "cluster.gather_read_us", unit: "us", better: "lower"},
	{name: "cluster.direct_read_us", unit: "us", better: "lower"},
	{name: "cluster.gather_over_direct", unit: "ratio", better: "lower"},
	{name: "cluster.fanout_us", unit: "us", better: "lower"},
	{name: "cluster.merge_us", unit: "us", better: "lower"},
	{name: "cluster.render_us", unit: "us", better: "lower"},
	{name: "cluster.submit_write_us", unit: "us", better: "lower"},
	{name: "cluster.quiesce_us", unit: "us", better: "lower"},
	{name: "cluster.lag_max", unit: "count", better: "lower"},
	// datalog: batch fixpoints.
	{name: "datalog.tc_chain_ms", unit: "ms", better: "lower"},
	{name: "datalog.tc_random_ms", unit: "ms", better: "lower"},
	{name: "datalog.tc_grid_ms", unit: "ms", better: "lower"},
	{name: "datalog.qtc_random_ms", unit: "ms", better: "lower"},
	{name: "datalog.index_build_ms", unit: "ms", better: "lower"},
	{name: "datalog.parse_ms", unit: "ms", better: "lower"},
	{name: "datalog.derivations", unit: "count", better: "lower"},
	{name: "datalog.duplicates", unit: "count", better: "lower"},
	{name: "datalog.dup_share", unit: "ratio", better: "lower"},
	{name: "datalog.rounds", unit: "count", better: "lower"},
	{name: "datalog.allocs_per_derived", unit: "count", better: "lower"},
	{name: "datalog.parallel_over_seminaive", unit: "ratio", better: "lower"},
	{name: "datalog.recompute_ms", unit: "ms", better: "lower"},
	// transducer and core: the shared transition core and the explorer.
	{name: "transducer.transitions", unit: "count", better: "lower"},
	{name: "transducer.heartbeat_share", unit: "ratio", better: "lower"},
	{name: "transducer.msgs_sent", unit: "count", better: "lower"},
	{name: "transducer.step_us", unit: "us", better: "lower"},
	{name: "transducer.step_share", unit: "ratio", better: "lower"},
	{name: "core.explore_broadcast_ms", unit: "ms", better: "lower"},
	{name: "core.explore_absence_ms", unit: "ms", better: "lower"},
	{name: "core.explore_domainreq_ms", unit: "ms", better: "lower"},
	{name: "core.explore_us_per_transition", unit: "us", better: "lower"},
	// netsim: the event scheduler around the transition core.
	{name: "netsim.run_ms", unit: "ms", better: "lower"},
	{name: "netsim.new_ms", unit: "ms", better: "lower"},
	{name: "netsim.events", unit: "count", better: "lower"},
	{name: "netsim.events_per_s", unit: "1/s", better: "higher"},
	{name: "netsim.schedops", unit: "count", better: "lower"},
	{name: "netsim.schedops_per_event", unit: "ratio", better: "lower"},
	{name: "netsim.heapmax", unit: "count", better: "lower"},
	{name: "netsim.sched_self_us_per_event", unit: "us", better: "lower"},
	{name: "netsim.alloc_kb_per_event", unit: "KB", better: "lower"},
	{name: "netsim.gc_share", unit: "ratio", better: "lower"},
	// obs: what the instruments themselves cost.
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
}

// sheet is the layer sheet under construction.
type sheet map[string]float64

// layerSheet runs the workload's probe and returns its sheet plus the
// traced run's attempted and failed counts.
func layerSheet(w *workload, seed int64, budget time.Duration, rec *recorder) (sheet, *result, error) {
	sh, res := sheet{}, &result{}
	if err := w.probe(seed, budget, rec, sh, res); err != nil {
		return nil, nil, fmt.Errorf("%s layers: %w", w.name, err)
	}
	// A fresh symbol's id is the number of symbols interned before it:
	// the table is dense and append-only.
	sh["fact.symbols"] = float64(fact.InternString("bench-symbol-count-probe"))
	return sh, res, nil
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// timeN returns the median duration of n calls of fn.
func timeN(n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	return medianDur(ds)
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func lineHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ---------------------------------------------------------------------
// serving stack: load, serve, incr, fact, obs

// probeServing replays one seeded request stream serially at three
// depths, each against a fresh copy of the same initial state, so the
// three see identical state trajectories:
//
//	depth 0  serve.tcp     window-1 ping-pong through TCPServer
//	depth 1  serve.handle  Core.HandleLine, then Response.Encode
//	depth 2  incr.apply    a twin Materialization fed the same writes,
//	                       plus fact.parse, incr.epoch and the cold
//	                       fact.render the epoch's first read pays
//
// then evaluates the final base from scratch (what one write costs
// without incr), runs a short open loop for the load.* figures, and
// compares throughput with the instruments on and off.
func probeServing(cfg servingCfg, ops int, phase time.Duration, seed int64, rec *recorder, sh sheet, res *result) error {
	st, err := startStack(cfg, seed, nil, nil)
	if err != nil {
		return err
	}
	defer st.stop()
	s0 := newStream(seed, 0, cfg.readFrac)
	reqs := make([]request, ops)
	for i := range reqs {
		reqs[i] = s0.next()
	}

	// The serial replays run on one P, like the end-to-end serial
	// replay, so the layers' self times add up to its round trip.
	restoreProcs := onOneP()
	defer restoreProcs()

	// Depth 0: over TCP.
	pp, err := dialPingPong(st.addr)
	if err != nil {
		return err
	}
	defer pp.close()
	var tcpRead, tcpWrite []time.Duration
	// sessionSelf[i] and writeSelf[i] become op i's self time at the
	// session and at the core: its span minus its children one depth
	// down. Medians of these per-op differences, not differences of
	// totals, so one machine stall moves one sample.
	sessionSelf, writeSelf := make([]time.Duration, ops), make([]time.Duration, ops)
	wire := make([]uint64, ops)
	err = pp.replay(res, sliceOf(reqs), func(i int, rq request, start time.Time, d time.Duration, resp []byte) {
		rec.add("serve.tcp", i, 0, start, d)
		wire[i], sessionSelf[i] = lineHash(resp), d
		if rq.write {
			tcpWrite = append(tcpWrite, d)
		} else {
			tcpRead = append(tcpRead, d)
		}
	})
	if err != nil {
		return err
	}

	// Depth 1: Core.HandleLine on a fresh core. The harness knows from
	// Core.Seq whether the epoch has already served the key, so it can
	// split reads into warm (memoized) and cold (first render).
	m1, err := incr.New(st.prog, st.base, incr.Options{})
	if err != nil {
		return err
	}
	core := serve.NewCore(m1, serve.Options{})
	defer core.Close()
	var handleRead, handleWrite, warm, cold, encode []time.Duration
	served := map[string]bool{}
	coldOp := make([]bool, ops)
	for i, rq := range reqs {
		key := fmt.Sprint(core.Seq(), " ", rq.key)
		parent := rec.find("serve.tcp", i)
		id := rec.begin("serve.handle", i, parent)
		resp := core.HandleLine(rq.line)
		d := rec.end(id)
		var line []byte
		enc := rec.time("serve.encode", i, parent, func() { line, err = resp.Encode() })
		encode = append(encode, enc)
		sessionSelf[i] -= d + enc
		writeSelf[i] = d
		res.attempted++
		// Same stream, same initial state: the bytes HandleLine answers
		// must be the bytes the TCP session sent.
		if err != nil || lineHash(line) != wire[i] {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("request %d: Core.HandleLine and the TCP session answered different bytes", i))
		}
		switch {
		case rq.write:
			handleWrite = append(handleWrite, d)
		case served[key]:
			handleRead, warm = append(handleRead, d), append(warm, d)
		default:
			served[key], coldOp[i] = true, true
			handleRead, cold = append(handleRead, d), append(cold, d)
		}
	}

	// Depth 2: the twin materialization.
	var m2 *incr.Materialization
	sh["incr.new_ms"] = msOf(timeN(3, func() { m2, err = incr.New(st.prog, st.base, incr.Options{}) }))
	if err != nil {
		return err
	}
	var applyIns, applyRet, epoch, parse []time.Duration
	var renderNs, renderFacts float64
	var total incr.ApplyStats
	ep := m2.Epoch()
	for i, rq := range reqs {
		parent := rec.find("serve.handle", i)
		if !rq.write {
			if coldOp[i] && rq.req.Rel != "" {
				var lines []string
				d := rec.time("fact.render", i, parent, func() { lines = fact.FactStrings(ep.Rel(rq.req.Rel)) })
				renderNs += float64(d.Nanoseconds())
				renderFacts += float64(len(lines))
			}
			continue
		}
		var fs []fact.Fact
		parse = append(parse, rec.time("fact.parse", i, parent, func() { fs, err = fact.ParseFacts(rq.req.Facts) }))
		writeSelf[i] -= parse[len(parse)-1]
		if err != nil {
			return err
		}
		delta := incr.Delta{Insert: fs}
		if rq.retract {
			delta = incr.Delta{Retract: fs}
		}
		var as incr.ApplyStats
		d := rec.time("incr.apply", i, parent, func() { as, err = m2.Apply(delta) })
		if err != nil {
			return err
		}
		if rq.retract {
			applyRet = append(applyRet, d)
		} else {
			applyIns = append(applyIns, d)
		}
		writeSelf[i] -= d
		total.DerivedAdded += as.DerivedAdded
		total.DerivedRemoved += as.DerivedRemoved
		total.Overdeleted += as.Overdeleted
		total.Rederived += as.Rederived
		total.SupportIncrements += as.SupportIncrements
		total.SupportDecrements += as.SupportDecrements
		epoch = append(epoch, rec.time("incr.epoch", i, parent, func() { ep = m2.Epoch() }))
		writeSelf[i] -= epoch[len(epoch)-1]
	}
	writes := float64(len(applyIns) + len(applyRet))
	var coreSelf []time.Duration
	for i, rq := range reqs {
		if rq.write {
			coreSelf = append(coreSelf, writeSelf[i])
		}
	}

	// Depth 3: no incr at all. The recomputed instance is also the
	// oracle for the twin: maintenance must equal evaluation.
	var full *fact.Instance
	base := m2.Base()
	sh["datalog.recompute_ms"] = msOf(timeN(3, func() {
		rec.time("datalog.recompute", 0, 0, func() { full, err = st.prog.Eval(base) })
	}))
	res.attempted++
	if err != nil || !full.Equal(m2.Instance()) {
		res.failed++
		res.notes = append(res.notes, "the maintained materialization differs from a full evaluation of its base")
	}

	sh["serve.tcp_read_us"] = usOf(medianDur(tcpRead))
	sh["serve.tcp_write_us"] = usOf(medianDur(tcpWrite))
	sh["serve.handle_read_us"] = usOf(medianDur(handleRead))
	sh["serve.handle_write_us"] = usOf(medianDur(handleWrite))
	sh["serve.session_self_us"] = usOf(medianDur(sessionSelf))
	sh["serve.read_warm_us"] = usOf(medianDur(warm))
	sh["serve.read_cold_us"] = usOf(medianDur(cold))
	sh["serve.memo_hit_share"] = ratio(float64(len(warm)), float64(len(warm)+len(cold)))
	sh["serve.encode_us"] = usOf(medianDur(encode))
	sh["serve.self_write_us"] = usOf(medianDur(coreSelf))
	sh["incr.apply_insert_us"] = usOf(medianDur(applyIns))
	sh["incr.apply_retract_us"] = usOf(medianDur(applyRet))
	sh["incr.epoch_us"] = usOf(medianDur(epoch))
	sh["incr.derived_per_write"] = ratio(float64(total.DerivedAdded+total.DerivedRemoved), writes)
	sh["incr.overdeleted_per_retract"] = ratio(float64(total.Overdeleted), float64(len(applyRet)))
	sh["incr.rederived_share"] = ratio(float64(total.Rederived), float64(total.Overdeleted))
	sh["incr.support_updates_per_write"] = ratio(float64(total.SupportIncrements+total.SupportDecrements), writes)
	sh["fact.parse_us"] = usOf(medianDur(parse))
	sh["fact.render_us_per_kfact"] = ratio(renderNs/1e3, renderFacts/1e3)

	probeStorage(m2.Instance(), rec, sh)

	// The open loop, on the stack depth 0 used: both streams continue.
	restoreProcs()
	if err := probeOpenLoop(st, []*stream{s0, newStream(seed, 1, cfg.readFrac)}, phase, sh, res); err != nil {
		return err
	}

	overhead, err := traceOverhead(cfg, seed, phase)
	if err != nil {
		return err
	}
	sh["obs.trace_overhead_pct"] = overhead
	return nil
}

// probeOpenLoop runs a short open loop against the stack at its
// workload's rate and files the load.* figures: what the harness
// itself sent and how late, and latency from the due time by class.
// Then the stack's final state goes to the oracle.
func probeOpenLoop(st *stack, streams []*stream, phase time.Duration, sh sheet, res *result) error {
	ol, err := openLoop(st.addr, streams, st.cfg.rate, phase)
	if err != nil {
		return err
	}
	res.attempted += ol.sent()
	res.failed += ol.sent() - ol.ok
	figures, note := ol.figures()
	for k, v := range figures {
		sh["load."+k] = v
	}
	if note != "" {
		res.notes = append(res.notes, note)
	}
	res.attempted++
	if err := st.checkFinal(streams); err != nil {
		res.failed++
		res.notes = append(res.notes, err.Error())
	}
	return nil
}

// sliceOf yields the requests of a fixed list, for replay.
func sliceOf(reqs []request) func() (request, bool) {
	i := 0
	return func() (request, bool) {
		if i == len(reqs) {
			return request{}, false
		}
		i++
		return reqs[i-1], true
	}
}

// overheadReps is how many closed-loop repetitions each side of the
// instrument comparison gets; the two sides alternate.
const overheadReps = 4

// traceOverhead is the closed-loop throughput lost to the program's
// own instruments: two fresh stacks, one with a Registry and a Tracer,
// one with neither, driven alternately.
func traceOverhead(cfg servingCfg, seed int64, phase time.Duration) (float64, error) {
	defer onOneP()() // like the end-to-end closed loop
	var rates [2][]float64
	var stacks [2]*stack
	var streams [2][]*stream
	for side := range stacks {
		var reg *obs.Registry
		var tracer *obs.Tracer
		if side == 1 {
			reg, tracer = obs.NewRegistry(), obs.NewTracer(4096, false)
		}
		st, err := startStack(cfg, seed, reg, tracer)
		if err != nil {
			return 0, err
		}
		defer st.stop()
		stacks[side] = st
		streams[side] = []*stream{newStream(seed, 0, cfg.readFrac), newStream(seed, 1, cfg.readFrac)}
	}
	for i := 0; i < overheadReps; i++ {
		for side, st := range stacks {
			cs, err := closedLoop(st.addr, streams[side], phase/overheadReps)
			if err != nil {
				return 0, err
			}
			rates[side] = append(rates[side], cs.rates...)
		}
	}
	return 100 * (1 - ratio(median(rates[1]), median(rates[0]))), nil
}

// ---------------------------------------------------------------------
// cluster

// probeCluster replays one seeded stream through the router over TCP
// (depth 0), then against a fresh cluster below the router (depth 1:
// Cluster.Read and Cluster.SubmitWrite), and reads each gathered
// request once more from a single shard's core for comparison. The
// depth-0 cluster publishes into a Registry, whose existing gather
// histograms give the fan-out, merge and render phases.
func probeCluster(cfg servingCfg, ops int, phase time.Duration, seed int64, rec *recorder, sh sheet, res *result) error {
	reg := obs.NewRegistry()
	st, err := startStack(cfg, seed, reg, nil)
	if err != nil {
		return err
	}
	defer st.stop()
	s0 := newStream(seed, 0, cfg.readFrac)
	reqs := make([]request, ops)
	for i := range reqs {
		reqs[i] = s0.next()
	}
	restoreProcs := onOneP()
	defer restoreProcs()
	pp, err := dialPingPong(st.addr)
	if err != nil {
		return err
	}
	defer pp.close()
	var routerRead, routerWrite []time.Duration
	lagMax := 0
	err = pp.replay(res, sliceOf(reqs), func(i int, rq request, start time.Time, d time.Duration, _ []byte) {
		rec.add("cluster.router", i, 0, start, d)
		if !rq.write {
			routerRead = append(routerRead, d)
			return
		}
		routerWrite = append(routerWrite, d)
		// Pumps apply asynchronously: right after an acked write is
		// when a shard can be seen behind the log.
		_, shards := st.cl.Health()
		for _, h := range shards {
			lagMax = max(lagMax, h.Lag)
		}
	})
	if err != nil {
		return err
	}
	// The open loop through the router, on the same stack.
	restoreProcs()
	if err := probeOpenLoop(st, []*stream{s0, newStream(seed, 1, cfg.readFrac)}, phase, sh, res); err != nil {
		return err
	}
	defer onOneP()() // back on one P for the replay below the router

	below, err := startStack(cfg, seed, nil, nil)
	if err != nil {
		return err
	}
	defer below.stop()
	cl := below.cl
	var gather, direct, submit, quiesce []time.Duration
	fence, reads := 0, 0
	for i, rq := range reqs {
		parent := rec.find("cluster.router", i)
		if rq.write {
			var resp serve.Response
			var g int
			submit = append(submit, rec.time("cluster.submit", i, parent, func() { resp, g = cl.SubmitWrite(rq.req) }))
			res.attempted++
			if !resp.OK {
				res.failed++
			}
			if g > 0 {
				fence = g
			}
			if len(submit)%16 == 0 {
				quiesce = append(quiesce, rec.time("cluster.quiesce", i, 0, cl.Quiesce))
			}
			continue
		}
		var resp serve.Response
		gather = append(gather, rec.time("cluster.gather", i, parent, func() { resp = cl.Read(-1, rq.req, fence) }))
		res.attempted++
		if !resp.OK {
			res.failed++
		}
		shard := reads % cl.ShardCount()
		reads++
		direct = append(direct, rec.time("cluster.direct", i, 0, func() { cl.ShardCore(shard).Do(rq.req) }))
	}
	if len(quiesce) == 0 {
		quiesce = append(quiesce, rec.time("cluster.quiesce", ops, 0, cl.Quiesce))
	}
	lat := reg.Snapshot().Latencies
	meanUs := func(name string) float64 { return ratio(float64(lat[name].Sum), float64(lat[name].Count)) / 1e3 }
	sh["cluster.router_read_us"] = usOf(medianDur(routerRead))
	sh["cluster.router_write_us"] = usOf(medianDur(routerWrite))
	sh["cluster.gather_read_us"] = usOf(medianDur(gather))
	sh["cluster.direct_read_us"] = usOf(medianDur(direct))
	sh["cluster.gather_over_direct"] = ratio(usOf(medianDur(gather)), usOf(medianDur(direct)))
	sh["cluster.fanout_us"] = meanUs(obs.ClusterGatherFanoutNs)
	sh["cluster.merge_us"] = meanUs(obs.ClusterGatherMergeNs)
	sh["cluster.render_us"] = meanUs(obs.ClusterGatherRenderNs)
	sh["cluster.submit_write_us"] = usOf(medianDur(submit))
	sh["cluster.quiesce_us"] = usOf(medianDur(quiesce))
	sh["cluster.lag_max"] = float64(lagMax)
	return nil
}

// ---------------------------------------------------------------------
// datalog and fact storage

// layerPasses is how many timed passes a batch probe makes after its
// warm-up pass; figures are medians over them.
const layerPasses = 3

// runPasses runs the batch's oracle pass and layerPasses timed passes,
// one span per task, and returns each task's median time.
func runPasses(b *batch, spanName string, seed int64, rec *recorder, res *result) ([]time.Duration, error) {
	if _, _, err := b.runOnce(); err != nil {
		return nil, err
	}
	res.attempted++
	if err := b.check(seed); err != nil {
		res.failed++
		res.notes = append(res.notes, err.Error())
	}
	times := make([][]time.Duration, len(b.tasks))
	for pass := 0; pass < layerPasses; pass++ {
		root := rec.begin(spanName+".pass", pass, 0)
		for i, t := range b.tasks {
			id := rec.begin(spanName, i, root)
			_, d, _, err := t.run()
			rec.end(id)
			res.attempted++
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.name, err)
			}
			times[i] = append(times[i], d)
		}
		rec.end(root)
	}
	out := make([]time.Duration, len(b.tasks))
	for i := range out {
		out[i] = medianDur(times[i])
	}
	return out, nil
}

// storageFacts is how many facts the storage figures are taken over.
const storageFacts = 200000

func probeDatalog(cfg datalogCfg, seed int64, rec *recorder, sh sheet, res *result) error {
	sh["datalog.parse_ms"] = msOf(timeN(5, func() {
		datalog.MustParseProgram(tcProgram)
		datalog.MustParseProgram(qtcProgram)
	}))
	db, err := newDatalogBatch(cfg, seed)
	if err != nil {
		return err
	}
	times, err := runPasses(&db.batch, "datalog.eval", seed, rec, res)
	if err != nil {
		return err
	}
	// The largest graph of each kind names the kind's figure.
	last := func(kind string) float64 {
		var ms float64
		for i, t := range db.evals {
			if strings.HasPrefix(t.name, kind) {
				ms = msOf(times[i])
			}
		}
		return ms
	}
	sh["datalog.tc_chain_ms"] = last("tc_chain")
	sh["datalog.tc_random_ms"] = last("tc_random")
	sh["datalog.tc_grid_ms"] = last("tc_grid")
	sh["datalog.qtc_random_ms"] = last("qtc_random")

	// Work counters the engine already publishes through
	// FixpointOptions.Reg, and allocations, over one pass.
	reg := obs.NewRegistry()
	derived := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, t := range db.evals {
		out, err := t.eval(datalog.FixpointOptions{})
		if err != nil {
			return err
		}
		derived += out.Len() - t.input.Len()
	}
	runtime.ReadMemStats(&after)
	for _, t := range db.evals {
		if _, err := t.eval(datalog.FixpointOptions{Reg: reg}); err != nil {
			return err
		}
	}
	c := reg.Snapshot().Counters
	sh["datalog.derivations"] = float64(c[obs.DlDerivations])
	sh["datalog.duplicates"] = float64(c[obs.DlDuplicates])
	sh["datalog.dup_share"] = ratio(float64(c[obs.DlDuplicates]), float64(c[obs.DlDerivations]+c[obs.DlDuplicates]))
	sh["datalog.rounds"] = float64(c[obs.DlRounds])
	sh["datalog.allocs_per_derived"] = ratio(float64(after.Mallocs-before.Mallocs), float64(derived))

	// Parallel against semi-naive at GOMAXPROCS workers, alternating.
	var par, semi []time.Duration
	for i := 0; i < layerPasses; i++ {
		for _, mode := range []datalog.EvalMode{datalog.SemiNaive, datalog.Parallel} {
			start := time.Now()
			for _, t := range db.evals {
				if _, err := t.eval(datalog.FixpointOptions{Mode: mode}); err != nil {
					return err
				}
			}
			if mode == datalog.Parallel {
				par = append(par, time.Since(start))
			} else {
				semi = append(semi, time.Since(start))
			}
		}
	}
	sh["datalog.parallel_over_seminaive"] = ratio(msOf(medianDur(par)), msOf(medianDur(semi)))

	// The largest output doubles as the fact layer's storage input.
	big := db.evals[0].out
	for _, t := range db.evals {
		if t.out.Len() > big.Len() {
			big = t.out
		}
	}
	sh["datalog.index_build_ms"] = msOf(timeN(3, func() { datalog.IndexInstance(big) }))
	probeStorage(big, rec, sh)
	return nil
}

// probeStorage files what the fact layer takes to store the workload's
// own facts: inst is copied until storageFacts are held, so the heap
// difference dwarfs whatever else the collector frees meanwhile.
func probeStorage(inst *fact.Instance, rec *recorder, sh sheet) {
	facts := inst.Facts()
	copies := make([]*fact.Instance, 1+storageFacts/len(facts))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	add := rec.time("fact.add", 0, 0, func() {
		for i := range copies {
			copies[i] = fact.NewInstance(facts...)
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	stored := float64(len(copies) * len(facts))
	sh["fact.add_ns"] = ratio(float64(add.Nanoseconds()), stored)
	sh["fact.bytes_per_fact"] = ratio(float64(after.HeapAlloc)-float64(before.HeapAlloc), stored)
	runtime.KeepAlive(copies)
}

// ---------------------------------------------------------------------
// netsim and the transition core

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the
// garbage collector so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// stepSamples bounds how many nodes of the largest ring are stepped
// directly at each stage for transducer.step_us; lockstepRounds how far
// the ring is driven for the middle stage.
const (
	stepSamples    = 48
	lockstepRounds = 16
)

func probeNetsim(cfg netsimCfg, seed int64, rec *recorder, sh sheet, res *result) error {
	nb, err := newNetsimBatch(cfg, seed)
	if err != nil {
		return err
	}
	big, bigTask := nb.rings[0], 0
	for i, r := range nb.rings {
		if len(r.net) > len(big.net) {
			big, bigTask = r, i
		}
	}
	sh["netsim.new_ms"] = msOf(timeN(5, func() { rec.time("netsim.new", 0, 0, func() { nb.newSim(big) }) }))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, wall0 := gcCPUSeconds(), time.Now()
	times, err := runPasses(&nb.batch, "netsim.run", seed, rec, res)
	if err != nil {
		return err
	}
	gc1, wall := gcCPUSeconds(), time.Since(wall0)
	runtime.ReadMemStats(&after)

	// One pass's simulated statistics, from the Sims the last pass left.
	var events, schedOps, heapMax int
	var m transducer.Metrics
	for _, r := range nb.rings {
		events += r.last.Events()
		schedOps += r.last.SchedOps()
		heapMax = max(heapMax, r.last.HeapMax())
		m.Merge(r.last.RunMetrics())
	}
	run := sumDur(times)
	passes := float64(layerPasses + 1)
	sh["netsim.run_ms"] = msOf(run)
	sh["netsim.events"] = float64(events)
	sh["netsim.events_per_s"] = ratio(float64(events), run.Seconds())
	sh["netsim.schedops"] = float64(schedOps)
	sh["netsim.schedops_per_event"] = ratio(float64(schedOps), float64(events))
	sh["netsim.heapmax"] = float64(heapMax)
	sh["netsim.alloc_kb_per_event"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(events)*passes)
	sh["netsim.gc_share"] = ratio(gc1-gc0, wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	sh["transducer.transitions"] = float64(m.Transitions)
	sh["transducer.heartbeat_share"] = ratio(float64(m.Heartbeats), float64(m.Transitions))
	sh["transducer.msgs_sent"] = float64(m.MessagesSent)

	// The transition core, called directly, on states and inboxes
	// taken at three stages of a run of the largest ring: at the start,
	// part-way (a second Sim driven in lockstep for a few rounds) and at
	// quiescence. Each sampled node takes the transition it would take
	// next, outside the simulator.
	start, err := nb.newSim(big)
	if err != nil {
		return err
	}
	mid, err := nb.newSim(big)
	if err != nil {
		return err
	}
	mid.SetFaults(nil)
	for round := 0; round < min(len(big.net)/4, lockstepRounds); round++ {
		for _, x := range big.net {
			if _, err := mid.Deliver(x); err != nil {
				return err
			}
		}
	}
	stepper := transducer.Stepper{Net: big.net, Trans: nb.trans, Pol: transducer.HashPolicy(big.net), Mod: mid.Mod}
	frags := transducer.Dist(stepper.Pol, big.net, big.input)
	parent := rec.find("netsim.run", bigTask)
	var step float64
	stages := []*netsim.Sim{start, mid, big.last}
	for _, stage := range stages {
		var steps []time.Duration
		for i := 0; i < len(big.net); i += max(1, len(big.net)/stepSamples) {
			x := big.net[i]
			state, inbox := stage.State(x), fact.NewInstance(stage.BufferedFacts(x)...)
			var err error
			steps = append(steps, rec.time("transducer.step", i, parent, func() { _, err = stepper.Step(x, frags[x], state, inbox) }))
			if err != nil {
				return err
			}
		}
		// Each stage's median, the stages weighted equally: cheap
		// opening heartbeats and full-state transitions both count.
		step += usOf(medianDur(steps)) / float64(len(stages))
	}
	sh["transducer.step_us"] = step
	sh["transducer.step_share"] = ratio(float64(m.Transitions)*step, usOf(run))
	// What is left of the run once the transitions are taken out, per
	// event. The step estimate is a median over sampled transitions, so
	// the remainder is good to a few microseconds; below zero it is
	// inside its own error and reads as zero.
	sh["netsim.sched_self_us_per_event"] = max(0, ratio(usOf(run)-float64(m.Transitions)*step, float64(events)))
	return nil
}

// ---------------------------------------------------------------------
// the schedule explorer

func probeExplore(cfg exploreCfg, seed int64, rec *recorder, sh sheet, res *result) error {
	eb, err := newExploreBatch(cfg, seed)
	if err != nil {
		return err
	}
	times, err := runPasses(&eb.batch, "core.explore", seed, rec, res)
	if err != nil {
		return err
	}
	perCase := map[string]time.Duration{}
	for i, t := range eb.tasks {
		for _, c := range eb.cases {
			if strings.HasPrefix(t.name, c.name+"#") {
				perCase[c.name] += times[i]
			}
		}
	}
	// ExploreStats carries the same simulated statistics the event
	// engine's RunMetrics does, summed over every explored schedule.
	transitions := 0
	var m transducer.Metrics
	for _, c := range eb.cases {
		transitions += c.stats.Transitions
		m.Merge(c.stats.Sim)
	}
	sh["transducer.transitions"] = float64(m.Transitions)
	sh["transducer.heartbeat_share"] = ratio(float64(m.Heartbeats), float64(m.Transitions))
	sh["transducer.msgs_sent"] = float64(m.MessagesSent)
	sh["core.explore_broadcast_ms"] = msOf(perCase["broadcast"])
	sh["core.explore_absence_ms"] = msOf(perCase["absence"])
	sh["core.explore_domainreq_ms"] = msOf(perCase["domainreq"])
	sh["core.explore_us_per_transition"] = ratio(usOf(sumDur(times)), float64(transitions))
	return nil
}
