package cluster

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/transducer"
)

// routerNode is the fault-plan identity of the router: the "sender"
// of every delta delivery on the simulated shard network.
const routerNode = transducer.NodeID("router")

// Options configures a Cluster. The zero value runs 2 shards with
// hash placement and no faults.
type Options struct {
	// Shards is the shard count (default 2, minimum 1).
	Shards int
	// Placement selects the placement strategy (default PlaceHash).
	Placement PlacementKind
	// Incr configures each shard's materialization. Incr.Tracer must be
	// nil: per-shard event streams would interleave nondeterministically
	// through one tracer, and the repo's event contract is deterministic.
	Incr incr.Options
	// Serve configures each shard's serving core.
	Serve serve.Options
	// Reg, when non-nil, receives the cluster.* metrics.
	Reg *obs.Registry
	// Tracer, when non-nil, records request-scoped spans across the
	// routing stack: log appends, scatter/gather phases, pump
	// deliveries (detached traces with Conn = -(1+shard)), and the
	// coord.* coordination events. Cluster span streams are NOT
	// byte-deterministic — pumps interleave freely (DESIGN.md §13).
	Tracer *obs.Tracer
	// Faults, when non-nil, injects duplication/delay/partition faults
	// into the delta stream, exactly as transducer fault plans inject
	// them into simulated networks: every decision is a pure function
	// of (seed, log position, shard), so faulty runs replay
	// deterministically. Faults act on replica deliveries only — the
	// delivery a client is waiting on applies locally — and crash
	// events are driven by the caller through Crash/Restart. Delays
	// reorder insert-only deliveries only (reordering is sound exactly
	// for monotone delta streams); a retract-bearing delivery releases
	// every hold on its shard before applying.
	Faults *transducer.FaultPlan
}

func (o Options) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return 2
}

func (o Options) placement() PlacementKind {
	if o.Placement == "" {
		return PlaceHash
	}
	return o.Placement
}

// record is one global delta-log entry: a client write split into
// per-shard sub-deltas. A shard with no sub has nothing to apply at this
// position — its pump still observes the entry so the watermark advances
// uniformly. The log is kept for the life of the cluster (Restart
// replays it), so an entry holds fact text and little else: its position
// is its index, and the usual record — one shard touched, no fault plan
// — is its one sub-delta and a nil pointer. A write placed on several
// shards, or any write under a fault plan, hangs the rest off more.
type record struct {
	first sub
	more  *recordMore
}

// recordMore is the part of a record few writes need.
type recordMore struct {
	subs []sub      // the sub-deltas after first
	key  *fact.Fact // the write's first fact, under a fault plan, which decides by it
}

func newRecord(subs []sub, key *fact.Fact) *record {
	r := &record{first: subs[0]}
	if len(subs) > 1 || key != nil {
		r.more = &recordMore{subs: slices.Clone(subs[1:]), key: key}
	}
	return r
}

// sub is what one shard (every shard, if shard is -1) applies at one log
// position, as an apply request: facts is nIns inserts, then retracts
// (mono: none), NUL-joined: no accepted fact holds one, and it is small.
type sub struct {
	shard int16
	mono  bool
	nIns  int32
	facts string
}

func newSub(shard int, ins, ret []string) sub {
	return sub{int16(shard), len(ret) == 0, int32(len(ins)), strings.Join(append(ins, ret...), "\x00")}
}

// sub returns what shard j applies at this record, nil for nothing.
func (r *record) sub(j int) *sub {
	if s := &r.first; int(s.shard) == j || s.shard < 0 {
		return s
	}
	if r.more != nil {
		for i := range r.more.subs {
			if s := &r.more.subs[i]; int(s.shard) == j {
				return s
			}
		}
	}
	return nil
}

// key returns the fact a fault plan decides this record's delivery by,
// nil when the cluster runs without one.
func (r *record) key() *fact.Fact {
	if r.more == nil {
		return nil
	}
	return r.more.key
}

// delivery is one inbox item for one shard: a log record to apply, with
// its log position g and (metrics on, not a replay) append time enq, or
// a flush control message releasing every held delta. resp, when
// non-nil, receives the apply response: the ack the client awaits.
type delivery struct {
	rec   *record
	g     int
	enq   time.Time
	resp  chan serve.Response
	flush bool
}

// heldDelivery is a fault-delayed delivery waiting for the clock (the
// global log position) to reach release.
type heldDelivery struct {
	d       delivery
	release int
}

// shard is one cluster member: a serving core fed by a pump goroutine
// draining an unbounded FIFO inbox. Pumps never coordinate with each
// other — a slow shard lags behind the log tip; its watermark says by
// how much.
type shard struct {
	id   int
	c    *Cluster
	node transducer.NodeID

	// core is swapped on restart; readers load it after a watermark
	// fence, pumps use it exclusively between restart and crash.
	core atomic.Pointer[serve.Core]

	qmu      sync.Mutex
	qcond    *sync.Cond
	q        []delivery
	stop     bool
	pumpDone chan struct{}

	// heldN mirrors the pump-local held-delivery count for /healthz
	// and the cluster op — the pump owns the list, everyone else just
	// reads this.
	heldN atomic.Int64

	wmMu   sync.Mutex
	wmCond *sync.Cond
	wm     int // highest g with every delivery ≤ g applied
	down   bool
}

// Cluster is N in-process shards behind one global delta log. All
// client traffic flows through SubmitWrite/Read (the Router wraps
// them in the NDJSON protocol); per-shard serving cores may also be
// exposed directly for placement-aware clients.
type Cluster struct {
	prog   *datalog.Program
	plan   Plan
	place  PlacementKind
	opts   Options
	idb    fact.Schema
	schema fact.Schema
	shards []*shard
	// share[j] is shard j's slice of the initial instance — replayed
	// on restart before the log.
	share  []*fact.Instance
	faults *transducer.FaultPlan

	mu  sync.Mutex
	log []*record
	// u is U of Plan's read rule, stored under mu at append.
	u atomic.Int64
	// migratedAt is the log position of the last write that migrated a
	// component, under mu.
	migratedAt int
	// comps holds, in partitioned mode, every placed base fact under its
	// co(I) component; a component lives on rootShard of its root.
	comps  *fact.ComponentIndex
	closed bool

	// gmemo memoizes gathered reads of the last pinned state (gather).
	gmemo atomic.Pointer[gatherMemo]

	reg    *obs.Registry
	tracer *obs.Tracer

	writes, reads, errors *obs.Counter
	deliveries, gathers   *obs.Counter
	crashes, recoveries   *obs.Counter

	// Coordination budget (coord.*) — see internal/obs names.go.
	coordFences     *obs.Counter
	holdFlushes     *obs.Counter
	holdsReleased   *obs.Counter
	coordMigrations *obs.Counter
	fencedReads     *obs.Counter

	// Latency planes: gather phases, log append, delivery lag.
	gatherNs       *obs.LatencyHist
	fanoutNs       *obs.LatencyHist
	mergeNs        *obs.LatencyHist
	gatherRenderNs *obs.LatencyHist
	logAppendNs    *obs.LatencyHist
	deliveryLagNs  *obs.LatencyHist
	coordFenceNs   *obs.LatencyHist
}

// New builds a cluster of opts.Shards shards over the program and
// initial base instance. In partitioned mode the initial instance is
// split by co(I) component; otherwise every shard materializes the
// full instance.
func New(p *datalog.Program, initial *fact.Instance, opts Options) (*Cluster, error) {
	if opts.Incr.Tracer != nil {
		return nil, fmt.Errorf("cluster: Incr.Tracer must be nil (per-shard event streams interleave nondeterministically)")
	}
	n := opts.shards()
	place := opts.placement()
	schema, err := p.Schema()
	if err != nil {
		return nil, fmt.Errorf("cluster: %v", err)
	}
	c := &Cluster{
		prog:   p,
		plan:   planFor(p, place),
		place:  place,
		opts:   opts,
		idb:    p.IDB(),
		schema: schema,
		faults: opts.Faults,
		comps:  fact.NewComponentIndex(),

		reg:    opts.Reg,
		tracer: opts.Tracer,

		writes:     opts.Reg.Counter(obs.ClusterWrites),
		reads:      opts.Reg.Counter(obs.ClusterReads),
		errors:     opts.Reg.Counter(obs.ClusterErrors),
		deliveries: opts.Reg.Counter(obs.ClusterDeliveries),
		gathers:    opts.Reg.Counter(obs.ClusterGathers),
		crashes:    opts.Reg.Counter(obs.ClusterCrashes),
		recoveries: opts.Reg.Counter(obs.ClusterRecoveries),

		coordFences:     opts.Reg.Counter(obs.CoordFenceWaits),
		holdFlushes:     opts.Reg.Counter(obs.CoordHoldFlushes),
		holdsReleased:   opts.Reg.Counter(obs.CoordHoldsReleased),
		coordMigrations: opts.Reg.Counter(obs.CoordMigrations),
		fencedReads:     opts.Reg.Counter(obs.CoordFencedReads),

		gatherNs:       opts.Reg.Latency(obs.ClusterGatherNs),
		fanoutNs:       opts.Reg.Latency(obs.ClusterGatherFanoutNs),
		mergeNs:        opts.Reg.Latency(obs.ClusterGatherMergeNs),
		gatherRenderNs: opts.Reg.Latency(obs.ClusterGatherRenderNs),
		logAppendNs:    opts.Reg.Latency(obs.ClusterLogAppendNs),
		deliveryLagNs:  opts.Reg.Latency(obs.ClusterDeliveryLagNs),
		coordFenceNs:   opts.Reg.Latency(obs.CoordFenceWaitNs),
	}
	c.share = c.splitInitial(initial, n)
	for j := 0; j < n; j++ {
		m, err := incr.New(p, c.share[j], opts.Incr)
		if err != nil {
			for _, sh := range c.shards {
				sh.core.Load().Close()
			}
			return nil, fmt.Errorf("cluster: shard %d: %v", j, err)
		}
		sh := &shard{
			id:       j,
			c:        c,
			node:     transducer.NodeID(fmt.Sprintf("s%d", j)),
			pumpDone: make(chan struct{}),
		}
		sh.qcond = sync.NewCond(&sh.qmu)
		sh.wmCond = sync.NewCond(&sh.wmMu)
		sh.core.Store(serve.NewCore(m, opts.Serve))
		c.shards = append(c.shards, sh)
	}
	for _, sh := range c.shards {
		go sh.pump()
	}
	return c, nil
}

// splitInitial computes each shard's share of the initial instance.
// Partitioned mode adds the whole instance to the component index
// first (so initial placement equals the static PlaceInstance answer)
// and routes each fact by its final root; replicated mode gives every
// shard the full instance.
func (c *Cluster) splitInitial(initial *fact.Instance, n int) []*fact.Instance {
	share := make([]*fact.Instance, n)
	if !c.plan.Partitioned {
		for j := range share {
			share[j] = initial
		}
		return share
	}
	for j := range share {
		share[j] = fact.NewInstance()
	}
	if initial == nil {
		return share
	}
	initial.Each(func(f fact.Fact) bool {
		c.comps.Add(f, nil)
		return true
	})
	initial.Each(func(f fact.Fact) bool {
		share[rootShard(c.comps.Root(f.ArgIDs()[0]), n)].Add(f)
		return true
	})
	return share
}

// Plan returns the coordination plan the fragment classifier chose.
func (c *Cluster) Plan() Plan { return c.plan }

// ShardCount returns the number of shards.
func (c *Cluster) ShardCount() int { return len(c.shards) }

// ShardCore returns shard j's serving core, for callers that expose
// per-shard endpoints (placement-aware smart clients). The pointer is
// the current incarnation; after a Crash/Restart cycle it is stale.
func (c *Cluster) ShardCore(j int) *serve.Core { return c.shards[j].core.Load() }

// logLen returns the global delta-log length, the log tip.
func (c *Cluster) logLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.log)
}

// ShardHealth is one shard's live progress: the payload of /healthz
// and of the NDJSON cluster op's applied/held/lag fields.
type ShardHealth struct {
	Shard int `json:"shard"`
	// Down reports a crashed, not-yet-restarted shard.
	Down bool `json:"down,omitempty"`
	// Watermark is the global log prefix the shard has applied; Lag is
	// the log tip minus that watermark (entries still in flight).
	Watermark int `json:"watermark"`
	Lag       int `json:"lag"`
	// Held counts fault-held deliveries parked on the shard.
	Held int `json:"held"`
	// Applied is the shard serving core's published epoch sequence.
	Applied int `json:"applied"`
}

// Health reports the log length and every shard's live progress.
func (c *Cluster) Health() (log int, shards []ShardHealth) {
	log = c.logLen()
	shards = make([]ShardHealth, len(c.shards))
	for j, sh := range c.shards {
		h := ShardHealth{
			Shard:     j,
			Down:      sh.isDown(),
			Watermark: sh.watermark(),
			Held:      int(sh.heldN.Load()),
			Applied:   sh.core.Load().Seq(),
		}
		h.Lag = log - h.Watermark
		shards[j] = h
	}
	return log, shards
}

// PublishHealth refreshes the per-shard labeled gauge families
// (cluster_pump_lag{shard="j"}, cluster_held_deliveries{shard="j"})
// from live state. The admin server calls it as its BeforeScrape
// hook, so /metrics always carries current watermark lag without the
// pumps updating gauges on their hot path.
func (c *Cluster) PublishHealth() {
	if c.reg == nil {
		return
	}
	_, shards := c.Health()
	for _, h := range shards {
		s := strconv.Itoa(h.Shard)
		c.reg.Gauge(obs.WithLabel(obs.ClusterPumpLag, "shard", s)).Set(int64(h.Lag))
		c.reg.Gauge(obs.WithLabel(obs.ClusterHeldDeliveries, "shard", s)).Set(int64(h.Held))
	}
}

// Close shuts every shard down. Outstanding writes racing the close
// are answered with an error.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, sh := range c.shards {
		if !sh.isDown() {
			sh.crash()
		}
	}
}

// --- write path ---------------------------------------------------

// SubmitWrite validates one mutating request, appends it to the
// global delta log, streams it to the shard pumps, and waits for the
// home shard acks. It returns the aggregated response and the log
// position (0 when the write was rejected before logging).
//
// Response semantics differ by mode, deliberately: replicated mode
// returns the home shard's response verbatim, so seq numbers are
// shard sequence numbers — identical on every shard and equal to the
// single-node oracle's (the determinism battery byte-compares them).
// Partitioned mode aggregates sub-responses and reports seq as the
// global log position, the only total order that exists there; apply
// stats include migration traffic when a write bridges components.
func (c *Cluster) SubmitWrite(req serve.Request) (serve.Response, int) {
	return c.submitWrite(req, obs.SpanCtx{})
}

// submitWrite is SubmitWrite with a trace context: the log append
// is recorded as a cluster.log_append span and component migrations
// as coord.migration spans under tc.
func (c *Cluster) submitWrite(req serve.Request, tc obs.SpanCtx) (serve.Response, int) {
	c.writes.Inc()
	if req.Op == "snapshot" {
		c.errors.Inc()
		return serve.ErrResp("snapshot is a per-shard operation; connect to a shard endpoint directly"), 0
	}
	// Parsed and validated by the code a single node runs: a bad write
	// is refused in its words and never reaches the log.
	d, err := serve.DeltaOf(req)
	if err == nil {
		err = d.Check(c.idb, c.schema)
	}
	if err != nil {
		c.errors.Inc()
		return serve.ErrResp("%v", err), 0
	}
	ins, ret := d.Insert, d.Retract

	ls := tc.Start(obs.SpanLogAppend, c.logAppendNs)
	var enq time.Time
	if c.reg != nil {
		// Not a span: cluster.delivery_lag_ns runs from this append to
		// each shard pump's apply of it, on the pump's goroutine.
		enq = time.Now()
	}
	n := len(c.shards)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.errors.Inc()
		ls.Finish()
		return serve.ErrResp("cluster is closed"), 0
	}
	g := len(c.log) + 1
	first := ins // the write's first fact decides its faults and, replicated, its home
	if len(first) == 0 {
		first = ret
	}
	var key *fact.Fact
	if c.faults != nil && len(first) > 0 {
		key = &first[0]
	}
	var subs []sub
	var homes []int
	var migrated int
	if c.plan.Partitioned {
		subs, migrated = c.placeDelta(ins, ret)
		if len(subs) == 0 {
			// Empty delta: one shard still acks, so the client gets a
			// well-formed apply response.
			subs = []sub{newSub(0, nil, nil)}
		}
		for _, s := range subs {
			homes = append(homes, int(s.shard))
		}
	} else {
		subs = []sub{newSub(-1, fact.FactStrings(ins), fact.FactStrings(ret))}
		h := 0
		if len(first) > 0 {
			h = hashShard(first[0].Key(), n)
		}
		homes = []int{h}
	}
	rec := newRecord(subs, key)
	c.log = append(c.log, rec)
	if migrated > 0 {
		c.migratedAt = g
	}
	if c.plan.raisesU(len(ret) > 0) {
		c.u.Store(int64(g))
	} else if len(ret) > 0 && c.behind(c.migratedAt) {
		// A partitioned retract may remove a fact whose old home has not
		// applied its migration yet: reads wait for that write.
		c.u.Store(int64(c.migratedAt))
	}
	acks := make([]chan serve.Response, 0, len(homes))
	for j, sh := range c.shards {
		d := delivery{rec: rec, g: g, enq: enq}
		if slices.Contains(homes, j) {
			d.resp = make(chan serve.Response, 1)
			acks = append(acks, d.resp)
		}
		sh.enqueue(d)
	}
	c.mu.Unlock()
	ls.SetSeq(g).Finish()
	if migrated > 0 {
		// A migration is coordination the placement layer performed on
		// the write's behalf: base facts moved shards inside this log
		// record so every derivation stays local.
		c.coordMigrations.Add(int64(migrated))
		ms := tc.Start(obs.SpanCoordMigration, nil)
		ms.SetSeq(g).Attr("components", migrated)
		ms.Finish()
	}

	if !c.plan.Partitioned {
		resp := <-acks[0]
		if !resp.OK {
			c.errors.Inc()
		}
		return resp, g
	}
	agg := serve.Response{OK: true, Apply: &serve.ApplyBody{}}
	for _, ch := range acks {
		r := <-ch
		if !r.OK {
			c.errors.Inc()
			return serve.ErrResp("%s", r.Err), g
		}
		if r.Apply != nil {
			agg.Apply.Inserted += r.Apply.Inserted
			agg.Apply.Retracted += r.Apply.Retracted
			agg.Apply.Added += r.Apply.Added
			agg.Apply.Removed += r.Apply.Removed
		}
	}
	agg.Seq = &g
	return agg, g
}

// placeDelta routes a validated delta in partitioned mode: every fact
// goes to its component's home shard, and an insert that bridges
// components resident on different shards migrates the absorbed
// component to the survivor's home (synthetic retract+insert pairs in
// the same log record, so each base fact lives on exactly one shard
// at every log position). Called with c.mu held — placement decisions
// are serialized in log order. Retraction never re-splits a merged
// component (see fact.ComponentIndex): colocating more than co(I)
// requires keeps every derivation local, if less sharp.
func (c *Cluster) placeDelta(ins, ret []fact.Fact) ([]sub, int) {
	n := len(c.shards)
	subs := make([]struct{ ins, ret []string }, n)
	migrated := 0

	for _, f := range ret {
		root, _ := c.comps.Remove(f)
		target := rootShard(root, n)
		subs[target].ret = append(subs[target].ret, f.String())
	}

	// The absorbed root's home is the hash of its pre-merge minimum; the
	// survivor's is unchanged, because a merge keeps the overall minimum.
	migrate := func(win, lose fact.ID, moved *fact.Instance) {
		loseHome, winHome := rootShard(lose, n), rootShard(win, n)
		if loseHome == winHome {
			return
		}
		for _, mf := range moved.Facts() {
			// Cancel within the record: a fact it put on loseHome itself
			// never goes there, and one it took off winHome stays — a
			// shard refuses a fact on both sides.
			s := mf.String()
			if !take(&subs[loseHome].ins, s) {
				subs[loseHome].ret = append(subs[loseHome].ret, s)
			}
			if !take(&subs[winHome].ret, s) {
				subs[winHome].ins = append(subs[winHome].ins, s)
			}
		}
		migrated++
	}
	for _, f := range ins {
		root, added := c.comps.Add(f, migrate)
		if !added {
			continue // already placed, by an earlier write or this one: nothing moves
		}
		home := rootShard(root, n)
		subs[home].ins = append(subs[home].ins, f.String())
	}

	var out []sub // touched shards only: the log must not retain all of subs
	for j, s := range subs {
		if len(s.ins) > 0 || len(s.ret) > 0 {
			out = append(out, newSub(j, s.ins, s.ret))
		}
	}
	return out, migrated
}

// take removes s from the list, reporting whether it was there.
func take(list *[]string, s string) bool {
	i := slices.Index(*list, s)
	if i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
	return i >= 0
}

// --- read path ----------------------------------------------------

// Read answers one read request. fence is the log position the read
// must observe: the router passes max(the connection's last own
// write, U), the read rule of Plan.
// Replicated mode routes to the affinity shard (skipping down
// shards; a negative affinity, "no preference", starts at shard 0);
// partitioned mode scatters to every live shard and gathers the
// disjoint union.
func (c *Cluster) Read(affinity int, req serve.Request, fence int) serve.Response {
	return c.read(affinity, req, fence, obs.SpanCtx{})
}

// read is Read with a trace context: a partitioned read records
// cluster.gather with fanout/merge phase children; a replicated read
// traces through the affinity shard's core.
func (c *Cluster) read(affinity int, req serve.Request, fence int, tc obs.SpanCtx) serve.Response {
	c.reads.Inc()
	if !serve.IsRead(req.Op) {
		c.errors.Inc()
		return serve.ErrResp("unknown op %q", req.Op)
	}
	if c.plan.Partitioned {
		return c.gather(req, fence, tc)
	}
	n := len(c.shards)
	affinity = max(affinity, 0)
	for k := 0; k < n; k++ {
		sh := c.shards[(affinity+k)%n]
		if sh.waitWM(fence) {
			return sh.core.Load().DoCtx(req, tc)
		}
	}
	c.errors.Inc()
	return serve.ErrResp("cluster: every shard is down")
}

// gather is the partitioned read: pin one epoch per live shard behind
// the fence, then ask the reader a core asks (serve.ReadMemo) over the
// gathered view, the union of the pinned epochs. For connected monotone
// programs the shard answers are disjoint slices of Q(I) (Theorem 5.3),
// so the union is disjoint; a down shard's slice is missing — the
// gathered answer is a subset of Q(I) that recovers with the shard,
// which is exactly the transducer model's crash semantics. Epoch echoes
// and stats seq report the minimum watermark across consulted shards:
// the longest log prefix the whole answer is guaranteed to reflect.
//
// Each phase is a latency histogram and a child span of cluster.gather
// (PERF.9 lives here): fanout is epoch pinning including any watermark
// fence waits; merge (collecting the shards' carried runs) and render
// (the k-way merge of their chunks into the wire line) happen only on a
// memo miss.
func (c *Cluster) gather(req serve.Request, fence int, tc obs.SpanCtx) serve.Response {
	c.gathers.Inc()
	if req.Op == "ping" {
		return serve.Response{OK: true} // liveness asks no shard
	}
	gs := tc.Start(obs.SpanGather, c.gatherNs)
	defer gs.Finish()

	fsp := gs.Ctx().Start(obs.SpanGatherFanout, c.fanoutNs)
	v := &gathered{c: c, tc: gs.Ctx(), seq: -1, eps: make([]*incr.Epoch, 0, len(c.shards))}
	for _, sh := range c.shards {
		if !sh.waitWM(fence) {
			continue
		}
		core := sh.core.Load()
		wm := sh.watermark()
		v.eps = append(v.eps, core.CurrentEpoch())
		if v.seq == -1 || wm < v.seq {
			v.seq = wm
		}
	}
	fsp.SetSeq(v.seq).Attr("shards", len(v.eps)).Finish()
	if len(v.eps) == 0 {
		c.errors.Inc()
		return serve.ErrResp("cluster: every shard is down")
	}
	gs.SetSeq(v.seq)

	resp := c.memoFor(v).Respond(v, req)
	v.endRender(resp)
	if !resp.OK {
		c.errors.Inc()
	}
	return resp
}

// gatherMemo is the read memo of the last gathered state, good while
// gathers keep pinning it: the same epoch on every consulted shard
// (epochs are immutable, so pointer identity is exact; a down or
// restarted shard changes the vector) under the same minimum watermark
// (which a no-op write advances, and echoes and stats report).
type gatherMemo struct {
	eps  []*incr.Epoch
	seq  int
	memo serve.ReadMemo
}

// memoFor returns the memo for the state v pinned, a fresh one when it
// differs from the last gather's. Concurrent gathers of different
// states may replace each other's memo: a re-render, never a wrong
// answer.
func (c *Cluster) memoFor(v *gathered) *serve.ReadMemo {
	if m := c.gmemo.Load(); m != nil && m.seq == v.seq && slices.Equal(m.eps, v.eps) {
		return &m.memo
	}
	m := &gatherMemo{eps: v.eps, seq: v.seq}
	c.gmemo.Store(m)
	return &m.memo
}

// gathered is one read's serve.View of the partitioned cluster: the
// epochs it pinned, as one state. It is per request so that a merge and
// render it causes are timed and traced under that request's gather.
type gathered struct {
	c   *Cluster
	tc  obs.SpanCtx
	eps []*incr.Epoch
	seq int

	// Set by a merge: the open render phase, closed by endRender.
	rsp obs.ActiveSpan
}

func (v *gathered) Seq() int { return v.seq }

func (v *gathered) Len() int     { return v.sum((*incr.Epoch).Len) }
func (v *gathered) BaseLen() int { return v.sum((*incr.Epoch).BaseLen) }

func (v *gathered) sum(size func(*incr.Epoch) int) (n int) {
	for _, ep := range v.eps {
		n += size(ep)
	}
	return n
}

// Wire is the union of the pinned epochs' runs of rel (every
// relation's when rel is ""), which the response writes as a k-way merge
// of the shards' chunks, by Fact.Compare, copying their elements. For a
// connected monotone program the runs are disjoint (Theorem 5.3), so
// the duplicate drop is insurance — but the fuzzer asserts it, because
// a placement bug that double-homes a fact must fail a test, not
// double-count an answer. The reader asks only on a memo miss: the
// merge phase is collecting the runs, render writes the merged line.
func (v *gathered) Wire(rel string) incr.Wire {
	msp := v.tc.Start(obs.SpanGatherMerge, v.c.mergeNs)
	ws := make([]incr.Wire, len(v.eps))
	for i, ep := range v.eps {
		ws[i] = ep.Wire(rel)
	}
	w := incr.Union(ws...)
	msp.Attr("facts", w.Len()).Finish()
	v.rsp = v.tc.Start(obs.SpanGatherRender, v.c.gatherRenderNs)
	return w
}

// endRender closes the render phase a merge opened, if one did.
func (v *gathered) endRender(resp serve.Response) {
	if v.rsp.Ctx().Enabled() {
		if b, err := resp.Encode(); err == nil {
			v.rsp.Attr("bytes", len(b))
		}
	}
	v.rsp.Finish()
}

// --- fault lifecycle ----------------------------------------------

// Crash stops shard j, discarding its in-memory state and every
// queued or held delivery (the log keeps them). Pending acks on the
// shard are answered with an error: the write is logged and will be
// recovered, but its ack is lost — at-least-once, like any crash
// between apply and reply.
func (c *Cluster) Crash(j int) error {
	if j < 0 || j >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", j)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[j]
	if sh.isDown() {
		return fmt.Errorf("cluster: shard %d is already down", j)
	}
	sh.crash()
	c.crashes.Inc()
	return nil
}

// Restart rebuilds shard j from its initial share plus a full replay
// of the global delta log — the transducer model's crash-recovery
// rebroadcast — and rejoins it to the stream. The shard's watermark
// restarts at zero and climbs as the replay catches up; reads fence
// on it as usual, so a recovering shard serves only once it has
// reached the reader's fence.
func (c *Cluster) Restart(j int) error {
	if j < 0 || j >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", j)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[j]
	if !sh.isDown() {
		return fmt.Errorf("cluster: shard %d is not down", j)
	}
	m, err := incr.New(c.prog, c.share[j], c.opts.Incr)
	if err != nil {
		return fmt.Errorf("cluster: restart shard %d: %v", j, err)
	}
	backlog := make([]delivery, len(c.log))
	for i, rec := range c.log {
		backlog[i] = delivery{rec: rec, g: i + 1}
	}
	sh.restart(serve.NewCore(m, c.opts.Serve), backlog)
	c.recoveries.Inc()
	return nil
}

// Quiesce flushes every fault-held delivery and waits until every
// live shard's watermark reaches the current log tip: afterwards all
// live shards have applied the full log prefix, the state every
// fair run converges to.
func (c *Cluster) Quiesce() {
	c.mu.Lock()
	tip := len(c.log)
	for _, sh := range c.shards {
		sh.enqueue(delivery{flush: true})
	}
	c.mu.Unlock()
	for _, sh := range c.shards {
		sh.waitWM(tip)
	}
}

// --- shard machinery ----------------------------------------------

// enqueue appends one delivery to the shard inbox. A down shard
// answers any expected ack with an error instead; the record stays in
// the log for replay.
func (sh *shard) enqueue(d delivery) {
	sh.qmu.Lock()
	if sh.stop {
		sh.qmu.Unlock()
		if d.resp != nil {
			d.resp <- serve.ErrResp("cluster: shard %d is down", sh.id)
		}
		return
	}
	sh.q = append(sh.q, d)
	sh.qcond.Signal()
	sh.qmu.Unlock()
}

// next blocks for the next inbox delivery; false means the shard is
// stopping.
func (sh *shard) next() (delivery, bool) {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	for len(sh.q) == 0 && !sh.stop {
		sh.qcond.Wait()
	}
	if sh.stop {
		return delivery{}, false
	}
	d := sh.q[0]
	sh.q = sh.q[1:]
	return d, true
}

// pump is the shard's delivery loop: apply log entries in arrival
// order, diverting through the fault plan when one is installed.
// Holds and duplicates follow the plan's pure per-message decisions
// with the global log position as the clock; held deliveries release
// when the clock passes their release tick, or all at once on a
// flush. held is pump-local: a crash drops it with the goroutine,
// and recovery replays from the log.
//
// Only insert-only deliveries may be held past later deliveries:
// reordering is sound exactly for monotone delta streams (applies
// commute and are idempotent, the CALM shape), while a delayed insert
// overtaken by a retraction of the same fact would resurrect it. A
// retract-bearing delivery is therefore a per-shard synchronization
// point — it releases every hold before applying, the delta-stream
// analogue of the coordination that non-monotonicity costs.
func (sh *shard) pump() {
	defer close(sh.pumpDone)
	var held []heldDelivery
	maxSeen := 0
	// The pump's deliveries form one detached trace: Conn = -(1+shard)
	// marks an actor with no client connection.
	ptc := sh.c.tracer.Root(obs.TraceID{Conn: -int64(1 + sh.id)})

	release := func(upTo int) int {
		kept := held[:0]
		n := 0
		for _, h := range held {
			if upTo >= 0 && h.release > upTo {
				kept = append(kept, h)
				continue
			}
			sh.apply(h.d, ptc)
			n++
		}
		held = kept
		sh.heldN.Store(int64(len(held)))
		return n
	}
	updateWM := func() {
		wm := maxSeen
		for _, h := range held {
			if h.d.g-1 < wm {
				wm = h.d.g - 1
			}
		}
		sh.setWM(wm)
	}

	for {
		d, ok := sh.next()
		if !ok {
			return
		}
		if d.flush {
			release(-1)
			updateWM()
			continue
		}
		g := d.g
		release(g)
		s := d.rec.sub(sh.id)
		mono := s == nil || s.mono
		if !mono && len(held) > 0 {
			// Retraction barrier: nothing may be reordered past it. This
			// flush is the delta-stream coordination a non-monotone write
			// costs — budgeted under coord.*.
			hs := ptc.Start(obs.SpanCoordHoldFlush, nil)
			n := release(-1)
			hs.SetShard(sh.id).SetSeq(g).Attr("released", n)
			hs.Finish()
			sh.c.holdFlushes.Inc()
			sh.c.holdsReleased.Add(int64(n))
		} else if !mono {
			release(-1)
		}
		if p, key := sh.c.faults, d.rec.key(); p != nil && mono && d.resp == nil && key != nil {
			if hold := p.HoldFor(g, routerNode, sh.node, *key); hold > 0 {
				held = append(held, heldDelivery{d: d, release: g + hold})
				sh.heldN.Store(int64(len(held)))
				maxSeen = g
				updateWM()
				continue
			}
			if p.ExtraCopies(g, routerNode, sh.node, *key) > 0 {
				sh.apply(delivery{rec: d.rec, g: g}, ptc) // duplicate copy; applies are idempotent
			}
		}
		sh.apply(d, ptc)
		maxSeen = g
		updateWM()
	}
}

// apply runs one delivery against the serving core and acks it. The
// delivery is recorded as a cluster.deliver span on the pump's trace,
// nesting the core's request phases, and its wall-clock lag from log
// append feeds cluster.delivery_lag_ns.
func (sh *shard) apply(d delivery, ptc obs.SpanCtx) {
	s := d.rec.sub(sh.id)
	var r serve.Response
	if s == nil {
		r = serve.Response{OK: true}
	} else {
		ds := ptc.Start(obs.SpanDeliver, nil)
		ds.SetShard(sh.id).SetSeq(d.g)
		var fs []string
		if s.facts != "" {
			fs = strings.Split(s.facts, "\x00")
		}
		r = sh.core.Load().DoCtx(serve.Request{Op: "apply", Insert: fs[:s.nIns], Retract: fs[s.nIns:]}, ds.Ctx())
		ds.Finish()
		sh.c.deliveries.Inc()
		if !d.enq.IsZero() {
			sh.c.deliveryLagNs.Observe(time.Since(d.enq).Nanoseconds())
		}
	}
	if d.resp != nil {
		d.resp <- r
	}
}

// behind reports whether some shard has yet to apply log position g.
// Callers hold c.mu.
func (c *Cluster) behind(g int) bool {
	return slices.ContainsFunc(c.shards, func(sh *shard) bool { return sh.watermark() < g })
}

func (sh *shard) setWM(wm int) {
	sh.wmMu.Lock()
	if wm != sh.wm {
		sh.wm = wm
		sh.wmCond.Broadcast()
	}
	sh.wmMu.Unlock()
}

func (sh *shard) watermark() int {
	sh.wmMu.Lock()
	defer sh.wmMu.Unlock()
	return sh.wm
}

func (sh *shard) isDown() bool {
	sh.wmMu.Lock()
	defer sh.wmMu.Unlock()
	return sh.down
}

// waitWM blocks until the shard's watermark reaches g; false means
// the shard is down (the caller should route around it). A wait that
// actually blocks is coordination: it is counted under coord.fence_waits
// and timed into coord.fence_wait_ns, the histogram the core's
// coord.fence span feeds.
func (sh *shard) waitWM(g int) bool {
	sh.wmMu.Lock()
	defer sh.wmMu.Unlock()
	if sh.down {
		return false
	}
	if sh.wm >= g {
		return true
	}
	sh.c.coordFences.Inc()
	fw := obs.SpanCtx{}.Start(obs.SpanCoordFence, sh.c.coordFenceNs)
	defer fw.Finish()
	for sh.wm < g {
		if sh.down {
			return false
		}
		sh.wmCond.Wait()
	}
	return true
}

// crash stops the pump, answers queued acks with errors, closes the
// core and marks the shard down. Callers hold c.mu.
func (sh *shard) crash() {
	sh.qmu.Lock()
	sh.stop = true
	q := sh.q
	sh.q = nil
	sh.qcond.Broadcast()
	sh.qmu.Unlock()
	<-sh.pumpDone
	for _, d := range q {
		if d.resp != nil {
			d.resp <- serve.ErrResp("cluster: shard %d is down", sh.id)
		}
	}
	sh.core.Load().Close()
	sh.wmMu.Lock()
	sh.down = true
	sh.wmCond.Broadcast()
	sh.wmMu.Unlock()
}

// restart installs a fresh core and replays the log backlog through a
// new pump. Callers hold c.mu, so the backlog snapshot and the inbox
// swap are atomic with respect to new appends.
func (sh *shard) restart(core *serve.Core, backlog []delivery) {
	sh.core.Store(core)
	sh.wmMu.Lock()
	sh.down = false
	sh.wm = 0
	sh.wmMu.Unlock()
	sh.qmu.Lock()
	sh.q = backlog
	sh.stop = false
	sh.qmu.Unlock()
	sh.pumpDone = make(chan struct{})
	go sh.pump()
}
