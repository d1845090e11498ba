package obs

// This file is the single counter and event vocabulary for the whole
// repository (DESIGN.md §8 is the prose companion). Every package
// instruments itself under its own prefix; nothing else may invent
// metric or event names. Names are dotted, lower_snake within a
// segment, and suffixed _ns for wall-clock histograms (which never
// appear in event streams — see the package comment).
// A phase has one clock: its _ns histogram is fed by the span that
// covers it (SpanCtx.Start takes the histogram). The few durations no
// single span covers are observed directly, and their comments say so.

// Datalog engine metrics (internal/datalog).
const (
	// DlRounds counts fixpoint rounds (every runRound call, including
	// the final empty-delta confirmation pass).
	DlRounds = "dl.rounds"
	// DlStrata counts strata evaluated.
	DlStrata = "dl.strata"
	// DlDerivations counts head facts emitted that were new to the
	// instance at emission time (pre-merge, per-task judgement).
	DlDerivations = "dl.derivations"
	// DlDuplicates counts emitted head facts suppressed because the
	// fact already existed — the duplicate-suppression work rate.
	DlDuplicates = "dl.duplicates"
	// DlCandidates counts join candidate facts iterated by the matcher.
	DlCandidates = "dl.candidates"
	// DlDeltaFacts counts facts entering a round delta (post-merge).
	DlDeltaFacts = "dl.delta_facts"
	// DlTasks counts (rule, pinned-chunk) evaluation tasks executed.
	DlTasks = "dl.tasks"
	// DlWorkers is the width of a Parallel round, GOMAXPROCS (gauge).
	DlWorkers = "dl.workers"
	// DlWorkerTasksPrefix + "<w>" counts tasks executed by worker w —
	// compare across workers for utilization (Registry plane only:
	// the task distribution is scheduling-dependent).
	DlWorkerTasksPrefix = "dl.worker_tasks."
	// DlFixpointNs / DlRoundNs time one evaluation and one round, each
	// a span on no trace; DlWorkerBusyNs is a worker's summed task
	// time in a fanned-out round, observed directly (nanoseconds).
	DlFixpointNs   = "dl.fixpoint_ns"
	DlRoundNs      = "dl.round_ns"
	DlWorkerBusyNs = "dl.worker_busy_ns"
	// DlRulePrefix namespaces per-rule counters:
	// dl.rule.s<stratum>.r<index>.<head>.{derivations,duplicates,candidates}.
	DlRulePrefix = "dl.rule."
)

// Incremental view-maintenance metrics (internal/incr).
const (
	// IncrApplies counts Apply calls that performed any work.
	IncrApplies = "incr.applies"
	// IncrBaseInserted / IncrBaseRetracted count base (edb) facts
	// inserted/retracted after netting no-ops out of the delta.
	IncrBaseInserted  = "incr.base_inserted"
	IncrBaseRetracted = "incr.base_retracted"
	// IncrDerivedAdded / IncrDerivedRemoved count the net change to the
	// derived (idb) portion of the materialization.
	IncrDerivedAdded   = "incr.derived_added"
	IncrDerivedRemoved = "incr.derived_removed"
	// IncrOverdeleted counts facts removed by deletion phases that
	// reached a recursive component; IncrRederived counts the facts a
	// deletion phase removed and the insertion phase brought back —
	// together they measure rederivation work. IncrKept counts the
	// facts a deletion phase reached and the witness check spared.
	IncrOverdeleted = "incr.overdeleted"
	IncrRederived   = "incr.rederived"
	IncrKept        = "incr.kept"
	// IncrSupportIncrements / IncrSupportDecrements count changes to
	// per-fact derivation support counts — the support-count churn.
	IncrSupportIncrements = "incr.support_increments"
	IncrSupportDecrements = "incr.support_decrements"
	// IncrApplyNs times every Apply call (no-op deltas included): the
	// incr.apply span.
	IncrApplyNs = "incr.apply_ns"
)

// Serving-core metrics (internal/serve). All of these live in the
// Registry plane only: request arrival order, batch sizes and
// latencies are scheduling-dependent, so the serving core emits no
// events.
const (
	// SrvConns counts sessions started (one per TCP connection, one for
	// a stdio daemon), on a single node and behind the router alike.
	SrvConns = "srv.conns"
	// SrvRequests counts request lines received (including malformed).
	SrvRequests = "srv.requests"
	// SrvReads / SrvWrites count dispatched read ops (ping, query,
	// facts, stats) and write ops (insert, retract, apply, snapshot).
	SrvReads  = "srv.reads"
	SrvWrites = "srv.writes"
	// SrvErrors counts error responses sent.
	SrvErrors = "srv.errors"
	// SrvCommits counts group commits (epoch publications attempted at
	// batch barriers; no-op batches do not publish a fresh epoch).
	SrvCommits = "srv.commits"
	// SrvSnapshots counts snapshot ops executed at commit barriers.
	SrvSnapshots = "srv.snapshots"
	// SrvEpoch is the latest published epoch's sequence number (gauge).
	SrvEpoch = "srv.epoch"
	// SrvBatchWrites is the distribution of write ops per group commit.
	SrvBatchWrites = "srv.batch_writes"
	// SrvQueueDepth is the write-queue depth observed when the writer
	// begins a batch — sustained depth near the bound means clients are
	// sitting in backpressure.
	SrvQueueDepth = "srv.queue_depth"
	// SrvReadNs / SrvWriteNs are wall-clock latency histograms from
	// dispatch to response (for writes this includes queue wait, apply,
	// and the group-commit barrier), observed directly; scrapes get
	// quantiles.
	SrvReadNs  = "srv.read_ns"
	SrvWriteNs = "srv.write_ns"
	// Phase latencies, each timed by the span of the same name: queue
	// wait from enqueue to writer pickup, engine apply, group-commit
	// barrier (batch drain + publish), and read-side render.
	SrvQueueWaitNs = "srv.queue_wait_ns"
	SrvApplyNs     = "srv.apply_ns"
	SrvCommitNs    = "srv.commit_ns"
	SrvRenderNs    = "srv.render_ns"
	// SrvLastCommitUnixNs is a gauge holding the wall-clock unix-nano
	// timestamp of the most recent epoch publication; /healthz and the
	// srv_epoch_age_ns scrape gauge derive epoch age from it.
	SrvLastCommitUnixNs = "srv.last_commit_unix_ns"
	// SrvEpochAgeNs is a scrape-time gauge: wall-clock nanoseconds since
	// the last epoch publication (now − SrvLastCommitUnixNs), refreshed
	// by the admin server's BeforeScrape hook.
	SrvEpochAgeNs = "srv.epoch_age_ns"
)

// Cluster metrics (internal/cluster): the sharded coordination-free
// serving layer. All counters live on the router/cluster side; the
// per-shard serving cores keep reporting under srv.* through their own
// registries.
const (
	// ClusterWrites / ClusterReads count client ops routed by the
	// router (after decode, before placement).
	ClusterWrites = "cluster.writes"
	ClusterReads  = "cluster.reads"
	// ClusterErrors counts error responses the router produced itself
	// (validation, unknown op, shard down) — shard-side errors are
	// counted by the shard's srv.errors.
	ClusterErrors = "cluster.errors"
	// ClusterDeliveries counts log-entry deliveries applied by shard
	// pumps (replicated mode: one per shard per write).
	ClusterDeliveries = "cluster.deliveries"
	// ClusterGathers counts scatter/gather reads (partitioned mode).
	ClusterGathers = "cluster.gathers"
	// ClusterCrashes / ClusterRecoveries count shard crash-restarts
	// and completed log-replay recoveries.
	ClusterCrashes    = "cluster.crashes"
	ClusterRecoveries = "cluster.recoveries"
	// Gather-path phase latencies, each timed by the span of the same
	// name: whole gather, scatter fan-out until every shard leg
	// returned, pinning the shards' runs, and the render that merges
	// their chunks into the response line.
	ClusterGatherNs       = "cluster.gather_ns"
	ClusterGatherFanoutNs = "cluster.gather_fanout_ns"
	ClusterGatherMergeNs  = "cluster.gather_merge_ns"
	ClusterGatherRenderNs = "cluster.gather_render_ns"
	// ClusterLogAppendNs is the latency of appending a write to the
	// global delta log under the cluster lock (placement included):
	// the cluster.log_append span.
	ClusterLogAppendNs = "cluster.log_append_ns"
	// ClusterDeliveryLagNs is the wall-clock lag from log append to a
	// shard pump applying the entry (one observation per delivery),
	// observed directly: append and apply run on different goroutines.
	ClusterDeliveryLagNs = "cluster.delivery_lag_ns"
	// ClusterPumpLag is a per-shard labeled gauge family
	// (WithLabel(ClusterPumpLag, "shard", j)): log tip minus the
	// shard's applied watermark, in log entries.
	ClusterPumpLag = "cluster.pump_lag"
	// ClusterHeldDeliveries is a per-shard labeled gauge family: log
	// entries currently held by the fault plan and not yet applied.
	ClusterHeldDeliveries = "cluster.held_deliveries"
)

// Coordination metrics (coord.*): the CALM-coordination events the
// serving stack performs — exactly the operations that a fully
// monotone workload never needs. These exist to make coordination a
// measurable budget; PERF.9 and /metrics surface them as coord_*.
const (
	// CoordFenceWaits counts reads that blocked on an epoch fence
	// (read-your-writes in the core, watermark waits in the cluster);
	// CoordFenceWaitNs is the matching latency histogram, timed by the
	// core's coord.fence span and by the cluster's watermark wait.
	CoordFenceWaits  = "coord.fence_waits"
	CoordFenceWaitNs = "coord.fence_wait_ns"
	// CoordHoldFlushes counts retract-triggered hold flushes (a
	// non-monotone write forcing held deliveries to drain);
	// CoordHoldsReleased counts the deliveries released by them.
	CoordHoldFlushes   = "coord.hold_flushes"
	CoordHoldsReleased = "coord.holds_released"
	// CoordMigrations counts component migrations between shards.
	CoordMigrations = "coord.migrations"
	// CoordFencedReads counts cluster reads whose fence U — the last
	// write the plan's licence does not cover — was above the
	// connection's own last write.
	CoordFencedReads = "coord.fenced_reads"
)

// Span names (the tracing plane, trace.go). Spans are grouped by the
// subsystem that opens them; coord.* spans mark coordination events.
const (
	// SpanReq wraps one request (the root span of every request
	// trace).
	SpanReq = "srv.req"
	// Serving-core write-path phases.
	SpanQueueWait = "srv.queue_wait"
	SpanApply     = "srv.apply"
	SpanCommit    = "srv.commit"
	SpanRender    = "srv.render"
	// SpanIncrApply wraps one incr.Apply delta application.
	SpanIncrApply = "incr.apply"
	// Cluster router/pump phases.
	SpanLogAppend    = "cluster.log_append"
	SpanGather       = "cluster.gather"
	SpanGatherFanout = "cluster.gather_fanout"
	SpanGatherMerge  = "cluster.gather_merge"
	SpanGatherRender = "cluster.gather_render"
	SpanDeliver      = "cluster.deliver"
	// Coordination spans.
	SpanCoordFence      = "coord.fence"
	SpanCoordHoldFlush  = "coord.hold_flush"
	SpanCoordMigration  = "coord.migration"
	SpanCoordFencedRead = "coord.fenced_read"
)

// ILOG¬ evaluator metrics (internal/ilog).
const (
	IlogRounds = "ilog.rounds"
	// IlogDerivations counts facts added across all rounds.
	IlogDerivations = "ilog.derivations"
	// IlogInvented counts added facts carrying a fresh Skolem value
	// (each invention fact introduces exactly one).
	IlogInvented = "ilog.invented"
	// IlogFacts is the final instance size (gauge).
	IlogFacts = "ilog.facts"
	// IlogEvalNs times one evaluation, a span on no trace.
	IlogEvalNs = "ilog.eval_ns"
)

// Transducer simulation metrics (internal/transducer, the Metrics
// struct published fact-for-fact under these names).
const (
	SimTransitions    = "sim.transitions"
	SimHeartbeats     = "sim.heartbeats"
	SimSent           = "sim.messages_sent"
	SimDelivered      = "sim.messages_delivered"
	SimDuplicated     = "sim.messages_duplicated"
	SimDelayed        = "sim.messages_delayed"
	SimDropped        = "sim.messages_dropped"
	SimRetransmitted  = "sim.messages_retransmitted"
	SimCrashes        = "sim.crashes"
	SimStalledSteps   = "sim.stalled_steps"
	SimQuiescenceTick = "sim.quiescence_tick" // gauge: clock at quiescence
)

// Event-driven network simulator metrics (internal/netsim). The
// engine also republishes the transducer Metrics under the sim.*
// names above; these add the scheduler-side story.
const (
	// NetsimEvents counts events popped from the queue (activations,
	// arrivals, crashes — stale activations included).
	NetsimEvents = "netsim.events"
	// NetsimSchedOps counts scheduler operations charged to the run:
	// one per node visit. The event engine pays one per activation
	// pop; the dense tick walk pays one per node per round. The ratio
	// is the idle-nodes-cost-nothing win.
	NetsimSchedOps = "netsim.sched_ops"
	// NetsimHeapMax is the high-water heap depth (gauge).
	NetsimHeapMax = "netsim.heap_max"
	// NetsimQuiesceTime is the logical time at quiescence (gauge).
	NetsimQuiesceTime = "netsim.quiesce_time"
)

// Schedule explorer metrics (internal/transducer ExploreStats).
const (
	ExploreSchedules   = "explore.schedules"
	ExploreAborted     = "explore.aborted"
	ExploreTransitions = "explore.transitions"
	ExploreViolations  = "explore.violations"
)

// Event kinds. Each kind's field set is fixed at its single emission
// site and recorded by the golden traces under the emitting package's
// testdata directory.
const (
	// EvDlRound: stratum, round, mode, tasks, candidates, derived,
	// duplicates, delta.
	EvDlRound = "dl.round"
	// EvDlStratum: stratum, rules, rounds, derived, facts.
	EvDlStratum = "dl.stratum"
	// EvDlFixpoint: strata, facts.
	EvDlFixpoint = "dl.fixpoint"

	// EvIncrApply: seq, inserted, retracted, added, removed, facts.
	EvIncrApply = "incr.apply"
	// EvIncrStratum: seq, stratum, alg, overdeleted, rederived, kept,
	// added, removed.
	EvIncrStratum = "incr.stratum"

	// EvIlogRound: stratum, round, derived, invented, facts.
	EvIlogRound = "ilog.round"
	// EvIlogStratum: stratum, rounds, derived, invented.
	EvIlogStratum = "ilog.stratum"

	// EvTransition: step, clock, node, kind, delivered, sent, changed,
	// out, buffered, held, msgs.
	EvTransition = "sim.transition"
	// EvStall: step, clock, node.
	EvStall = "sim.stall"
	// EvCrash: step, clock, node, dropped, rebuffered.
	EvCrash = "sim.crash"
	// EvHold: clock, from, to, fact, copies, release.
	EvHold = "sim.hold"
	// EvQuiesce: clock, rounds, out.
	EvQuiesce = "sim.quiesce"

	// EvNetsimQuiesce: time, events, sched_ops, out — the event-driven
	// engine's quiescence record (logical time replaces the tick
	// scheduler's round count).
	EvNetsimQuiesce = "netsim.quiesce"

	// EvSchedule: label, transitions, sent, delivered, aborted.
	EvSchedule = "explore.schedule"
	// EvViolation: kind, schedule, step, bad, output, want.
	EvViolation = "explore.violation"
)

// EventKinds lists every event kind, for schema-coverage tests.
var EventKinds = []string{
	EvDlRound, EvDlStratum, EvDlFixpoint,
	EvIncrApply, EvIncrStratum,
	EvIlogRound, EvIlogStratum,
	EvTransition, EvStall, EvCrash, EvHold, EvQuiesce,
	EvNetsimQuiesce,
	EvSchedule, EvViolation,
}
