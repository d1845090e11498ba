package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
	"repro/internal/netsim"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// The three batch workloads share one protocol. A workload is a fixed
// list of tasks built from the seed; one pass runs every task once.
// The work a task does (derived facts, delivered messages, schedules)
// is recorded on the warm-up pass and must repeat exactly on every
// later pass, so a rate is inverse wall time at a fixed input size and
// cannot be gamed by doing less work. Every task belongs to one of the
// workload's two op classes: op*_p50_us reads the class's median task,
// op*_tail_us its slowest. With a dozen tasks to a class there is no
// percentile beyond the median to read, and tasks pooled over enough
// passes to hold one would measure the machine's slow spells, not the
// tasks.

// task is one unit operation of a batch workload.
type task struct {
	name string
	// class is the op class (0 or 1) the task's time is a sample of.
	class int
	// run does the work and returns its size and the state to keep
	// alive for live_heap_mb. timed is the part of the call the
	// workload's rate is defined over.
	run func() (work int, timed time.Duration, keep any, err error)
}

// batch is a task list plus its oracle: verify (optional; tasks may
// also check themselves as they run) checks outputs the tasks left
// behind, pins returns the simulated statistics and output digests the
// golden files hold.
type batch struct {
	workload string
	tasks    []task
	verify   func() error
	pins     func() map[string]string
}

// runOnce runs every task once, untimed, and returns each task's work
// and kept state: the warm-up pass, after which check may run.
func (b *batch) runOnce() (work []int, keep []any, err error) {
	work, keep = make([]int, len(b.tasks)), make([]any, len(b.tasks))
	for i, t := range b.tasks {
		if work[i], _, keep[i], err = t.run(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", t.name, err)
		}
	}
	return work, keep, nil
}

// minPasses is the fewest measured passes a batch run makes, whatever
// the budget.
const minPasses = 3

func measureBatch(b *batch, seed int64, budget time.Duration, between func()) (*result, error) {
	r := &result{}
	pinned, keep, err := b.runOnce()
	if err != nil {
		return nil, err
	}
	r.attempted++
	if err := b.check(seed); err != nil {
		r.failed++
		r.notes = append(r.notes, err.Error())
	}
	total := 0
	for _, w := range pinned {
		total += w
	}
	r.setExtra("work_per_pass", float64(total))
	// times[i] are task i's times over the passes, in microseconds.
	times := make([][]float64, len(b.tasks))
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < budget; pass++ {
		var passTime time.Duration
		var lat [2]samples
		failed := r.failed
		for i, t := range b.tasks {
			work, d, k, err := t.run()
			r.attempted++
			if err != nil || work != pinned[i] {
				r.failed++
				r.notes = append(r.notes, fmt.Sprintf("%s: work %d, pinned %d, err %v", t.name, work, pinned[i], err))
				continue
			}
			keep[i] = k
			passTime += d
			times[i] = append(times[i], usOf(d))
			lat[t.class] = append(lat[t.class], d.Nanoseconds())
		}
		if r.failed == failed { // a failed pass has no comparable time
			r.throughput.over = append(r.throughput.over, float64(total)/passTime.Seconds())
			for c, l := range lat {
				l = l.sorted()
				r.p50[c].over, r.tail[c].over = append(r.p50[c].over, l.us(0.50)), append(r.tail[c].over, l.us(1))
			}
		}
		between()
	}
	// Every figure is built from each task's calm time over the passes
	// (see calm), not from whole passes: a task lasts milliseconds, a pass
	// up to a second, and on the reference box a calm stretch that long
	// does not happen.
	var sum float64
	var byClass [2][]float64
	for i, t := range b.tasks {
		c := calm(times[i])
		sum += c
		byClass[t.class] = append(byClass[t.class], c)
		r.p50[t.class].samples += len(times[i])
	}
	r.throughput.value = ratio(float64(total), sum/1e6)
	for c, ts := range byClass {
		sort.Float64s(ts)
		r.p50[c].value, r.tail[c].value = medianSorted(ts), ts[len(ts)-1]
		r.tail[c].samples = r.p50[c].samples
	}
	r.setExtra("passes", float64(len(r.throughput.over)))
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(keep) // the last pass's outputs stay reachable until the heap is read
	return r, nil
}

// check runs the workload's oracle and, when the seed has a golden
// file, compares the pinned statistics with it.
func (b *batch) check(seed int64) error {
	if b.verify != nil {
		if err := b.verify(); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	return compareGolden(goldenFor(seed), b.workload, b.pins())
}

// digest is the golden form of an output: FNV-64a over its sorted
// fact lines.
func digest(i *fact.Instance) string {
	h := fnv.New64a()
	for _, s := range fact.FactStrings(i.Facts()) {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%016x", i.Len(), h.Sum64())
}

// ---------------------------------------------------------------------
// datalog-batch

// datalogCfg lists the graph sizes of one pass: TC on a chain of n
// nodes, on a random graph of n nodes and 3n edges, on an n×n grid,
// and stratified QTC on a random graph of n nodes and 2n edges.
type datalogCfg struct {
	chains, randoms, grids, qtcs []int
}

type datalogTask struct {
	name       string
	prog       *datalog.Program
	stratified bool
	input, out *fact.Instance
}

func (t *datalogTask) eval(opts datalog.FixpointOptions) (*fact.Instance, error) {
	if t.stratified {
		return t.prog.EvalStratified(t.input, opts)
	}
	return t.prog.Fixpoint(t.input, opts)
}

type datalogBatch struct {
	batch
	evals []*datalogTask
}

// newDatalogBatch is the workload's set-up: parse both programs and
// build every input graph from the seed.
func newDatalogBatch(cfg datalogCfg, seed int64) (*datalogBatch, error) {
	tc, err := datalog.ParseProgram(tcProgram)
	if err != nil {
		return nil, err
	}
	qtc, err := datalog.ParseProgram(qtcProgram)
	if err != nil {
		return nil, err
	}
	db := &datalogBatch{}
	add := func(kind string, n int, prog *datalog.Program, stratified bool, input *fact.Instance) {
		db.evals = append(db.evals, &datalogTask{name: fmt.Sprintf("%s%d", kind, n), prog: prog, stratified: stratified, input: input})
	}
	for _, n := range cfg.chains {
		add("tc_chain", n, tc, false, chainGraph(seedRng(seed, fmt.Sprint("chain", n)), "c", n))
	}
	for _, n := range cfg.randoms {
		add("tc_random", n, tc, false, randomGraph(seedRng(seed, fmt.Sprint("random", n)), "r", n, 3*n))
	}
	for _, n := range cfg.grids {
		add("tc_grid", n, tc, false, gridGraph(seedRng(seed, fmt.Sprint("grid", n)), "g", n, n))
	}
	for _, n := range cfg.qtcs {
		add("qtc_random", n, qtc, true, randomGraph(seedRng(seed, fmt.Sprint("qtc", n)), "q", n, 2*n))
	}
	for _, t := range db.evals {
		t := t
		class := 0
		if t.stratified {
			class = 1
		}
		db.tasks = append(db.tasks, task{name: t.name, class: class, run: func() (int, time.Duration, any, error) {
			start := time.Now()
			out, err := t.eval(datalog.FixpointOptions{})
			d := time.Since(start)
			if err != nil {
				return 0, d, nil, err
			}
			t.out = out
			return out.Len() - t.input.Len(), d, out, nil
		}})
	}
	db.workload = "datalog-batch"
	// Oracle: the parallel engine must produce the same instance as
	// the default semi-naive one on every task.
	db.verify = func() error {
		for _, t := range db.evals {
			par, err := t.eval(datalog.FixpointOptions{Mode: datalog.Parallel})
			if err != nil {
				return err
			}
			if !par.Equal(t.out) {
				return fmt.Errorf("%s: Parallel output differs from SemiNaive", t.name)
			}
		}
		return nil
	}
	db.pins = func() map[string]string {
		p := map[string]string{}
		for _, t := range db.evals {
			p[t.name+"/output"] = digest(t.out)
		}
		return p
	}
	return db, nil
}

// ---------------------------------------------------------------------
// netsim-ring

// netsimCfg sizes one pass: smallRuns Sim.Runs on rings of small nodes
// and largeRuns on rings of large nodes, each run on a seeded input of
// its own. Two sizes, not a spread, so each op class times one kind of
// run: the small ring is where per-run set-up weighs most, the large
// one where the run itself does.
type netsimCfg struct {
	small, smallRuns, large, largeRuns int
}

// rings lists the pass's ring sizes in task order.
func (c netsimCfg) rings() []int {
	var out []int
	for i := 0; i < c.smallRuns; i++ {
		out = append(out, c.small)
	}
	for i := 0; i < c.largeRuns; i++ {
		out = append(out, c.large)
	}
	return out
}

// stallHorizon scales the one long stall window with the ring, as
// BenchmarkNetsimEvent does: the network spends most of logical time
// idle, which the event scheduler makes free.
const stallHorizon = 250

type ringTask struct {
	name        string
	topo        *generate.Topology
	net         transducer.Network
	input, want *fact.Instance
	last        *netsim.Sim
}

type netsimBatch struct {
	batch
	trans *transducer.Transducer
	rings []*ringTask
}

// ringInput is a fixed shape, a 4-cycle with a tail, over seeded
// labels: hash placement scatters it differently per seed while the
// answer keeps its size.
func ringInput(seed int64, k int) *fact.Instance {
	v := labels(seedRng(seed, fmt.Sprint("ring-input", k)), fmt.Sprintf("v%d_", k), 5)
	return fact.NewInstance(edge(v[0], v[1]), edge(v[1], v[2]), edge(v[2], v[3]), edge(v[3], v[0]), edge(v[1], v[4]))
}

func (nb *netsimBatch) newSim(r *ringTask) (*netsim.Sim, error) {
	s, err := netsim.New(r.net, nb.trans, transducer.HashPolicy(r.net), core.Gossip.RequiredModel(), r.input,
		netsim.Options{Topo: r.topo, Routing: netsim.RouteNeighbors, MaxEvents: 1 << 30, Want: r.want})
	if err != nil {
		return nil, err
	}
	s.SetFaults(&transducer.FaultPlan{Stalls: []transducer.Stall{{Node: r.net[0], From: 5, To: stallHorizon * len(r.net)}}})
	return s, nil
}

// newNetsimBatch is the workload's set-up: build the gossip
// transducer for TC (monotone, Theorem 4.3), every ring topology, its
// seeded input and the centrally evaluated answer.
func newNetsimBatch(cfg netsimCfg, seed int64) (*netsimBatch, error) {
	trans, err := core.Build(core.Gossip, queries.TC())
	if err != nil {
		return nil, err
	}
	nb := &netsimBatch{trans: trans}
	for k, n := range cfg.rings() {
		topo, err := generate.NewTopology(generate.TopoRing, n, seed)
		if err != nil {
			return nil, err
		}
		r := &ringTask{name: fmt.Sprintf("ring%d#%d", n, k), topo: topo, net: netsim.NetworkOf(topo), input: ringInput(seed, k)}
		if r.want, err = queries.TC().Eval(r.input); err != nil {
			return nil, err
		}
		if _, err := nb.newSim(r); err != nil {
			return nil, err
		}
		nb.rings = append(nb.rings, r)
		class := 0
		if n == cfg.large {
			class = 1
		}
		nb.tasks = append(nb.tasks, task{name: r.name, class: class, run: func() (int, time.Duration, any, error) {
			s, err := nb.newSim(r)
			if err != nil {
				return 0, 0, nil, err
			}
			start := time.Now()
			out, err := s.Run()
			d := time.Since(start)
			if err != nil {
				return 0, d, nil, err
			}
			// Cheap enough to hold on every run: the output is Q(I),
			// no message was lost or invented, no wrong fact appeared.
			if !out.Equal(r.want) || !s.Conserved() || len(s.WrongFacts) > 0 {
				return 0, d, nil, fmt.Errorf("output equal %v, conserved %v, wrong facts %d", out.Equal(r.want), s.Conserved(), len(s.WrongFacts))
			}
			r.last = s
			return s.RunMetrics().MessagesDelivered, d, s, nil
		}})
	}
	nb.workload = "netsim-ring"
	nb.pins = func() map[string]string {
		p := map[string]string{}
		for _, r := range nb.rings {
			m := r.last.RunMetrics()
			p[r.name+"/metrics"] = fmt.Sprintf("transitions %d heartbeats %d sent %d delivered %d", m.Transitions, m.Heartbeats, m.MessagesSent, m.MessagesDelivered)
			p[r.name+"/output"] = digest(r.last.Output())
		}
		return p
	}
	return nb, nil
}

// ---------------------------------------------------------------------
// explore-faults

// exploreCfg sizes the fault exploration: plans seeded fault plans per
// strategy, explored chunk plans per ExploreStrategy call.
type exploreCfg struct {
	plans, chunk int
}

// exploreCase is one strategy on a query inside its class, the X1–X3
// shape of cmd/experiments: every explored schedule must be clean.
type exploreCase struct {
	name string
	// class is 0 for the monotone strategy, 1 for the non-monotone
	// ones, which cost several times more per transition.
	class    int
	strategy core.Strategy
	query    monotone.Query
	policy   transducer.Policy
	stats    transducer.ExploreStats
}

type exploreBatch struct {
	batch
	net   transducer.Network
	input *fact.Instance
	cases []*exploreCase
}

// newExploreBatch is the workload's set-up: the 3-node network, the
// seeded input graph and policies, and one trial build of each
// strategy's transducer.
func newExploreBatch(cfg exploreCfg, seed int64) (*exploreBatch, error) {
	net := transducer.MustNetwork("n1", "n2", "n3")
	v := labels(seedRng(seed, "explore-input"), "x", 5)
	eb := &exploreBatch{
		net:   net,
		input: fact.NewInstance(edge(v[0], v[1]), edge(v[1], v[2]), edge(v[2], v[0]), edge(v[3], v[3]), edge(v[3], v[4])),
	}
	hash := transducer.HashPolicy(net)
	guided := transducer.DomainGuided(transducer.HashAssignment(net))
	eb.cases = []*exploreCase{
		{name: "broadcast", strategy: core.Broadcast, query: queries.TC(), policy: hash},
		{name: "absence", class: 1, strategy: core.Absence, query: queries.NoLoop(), policy: hash},
		{name: "domainreq", class: 1, strategy: core.DomainRequest, query: queries.ComplementTC(), policy: guided},
	}
	base := seed*100000 + 1
	for _, c := range eb.cases {
		if _, err := core.Build(c.strategy, c.query); err != nil {
			return nil, err
		}
		for k := 0; k*cfg.chunk < cfg.plans; k++ {
			c, k := c, k
			opts := transducer.ExploreOptions{
				Seeds:    cfg.chunk,
				BaseSeed: base + int64(k*cfg.chunk),
				Faults:   core.FaultConfigFor(c.strategy),
				// The deterministic schedule families (starvation,
				// fresh-value adversaries) run once, with the first chunk.
				SkipStarvation: k > 0,
				SkipAdversary:  k > 0,
			}
			eb.tasks = append(eb.tasks, task{name: fmt.Sprintf("%s#%d", c.name, k), class: c.class, run: func() (int, time.Duration, any, error) {
				if k == 0 {
					c.stats = transducer.ExploreStats{}
				}
				start := time.Now()
				viol, st, err := core.ExploreStrategy(c.strategy, c.query, eb.net, c.policy, eb.input, opts)
				d := time.Since(start)
				if err != nil {
					return 0, d, nil, err
				}
				if viol != nil {
					return 0, d, nil, viol
				}
				c.stats.Schedules += st.Schedules
				c.stats.Transitions += st.Transitions
				c.stats.Sim.Merge(st.Sim)
				return st.Schedules, d, nil, nil
			}})
		}
	}
	eb.workload = "explore-faults"
	eb.pins = func() map[string]string {
		p := map[string]string{}
		for _, c := range eb.cases {
			p[fmt.Sprintf("%s/%dplans-by-%d/stats", c.name, cfg.plans, cfg.chunk)] = fmt.Sprintf("schedules %d transitions %d sent %d delivered %d", c.stats.Schedules, c.stats.Transitions, c.stats.Sim.MessagesSent, c.stats.Sim.MessagesDelivered)
		}
		return p
	}
	return eb, nil
}
