// Package cluster is calmd's sharded coordination-free serving layer:
// N in-process serving cores (internal/serve, each owning its own
// incr.Materialization of the same program) behind a Router speaking
// the single-node NDJSON protocol, with base-fact deltas streamed
// between shards asynchronously — no barriers, no global locks on the
// data path.
//
// The design is the paper's CALM story turned into a deployment
// shape. The paper proves the monotone fragments (M, Mdistinct,
// Mdisjoint) computable by coordination-free transducer networks:
// nodes broadcast what they know, never wait for each other, and every
// fair run converges to Q(I). Here the "network" is the shard set and
// the "broadcast" is the delta stream:
//
//   - A Router accepts client writes, validates them against the
//     program schema, appends them to a global delta log, and streams
//     them to shard pumps — per-shard goroutines that apply deltas
//     through each shard's single-writer serving core. Pumps never
//     synchronize with each other; a slow shard lags, it does not
//     block the others (asynchronous rebroadcast, the transducer
//     model's fair delivery).
//
//   - Placement decides which shard is a fact's home. Hash placement
//     (default) replicates every delta to every shard in global log
//     order: shards are replicas that converge through the identical
//     apply sequence, reads route to one shard, and because the order
//     is identical, every shard's epoch s is byte-identical to a
//     single-node oracle that applied the same first s effective
//     deltas — the determinism battery leans on exactly this.
//
//   - Component placement (`co(I)`, the paper's Lemma 3.2/Theorem 5.3
//     machinery) partitions instead of replicating: each co(I)
//     component — a connectivity class of the "shares a value" graph
//     on facts — lives wholly on one shard, chosen by hashing the
//     component's minimum active-domain value. For connected monotone
//     programs every derivation stays inside one component, so shards
//     compute disjoint slices of Q(I) independently and a gathered
//     read is the disjoint union Q(I) = ⊎ Q(I_k) (Theorem 5.3). When
//     a write bridges two components resident on different shards,
//     the router migrates the absorbed component to the winner
//     (synthetic retract+insert entries at one log position),
//     restoring the every-component-whole invariant. The router's one
//     record of placement is a fact.ComponentIndex: every placed base
//     fact, once, under its component's root (the minimum value, whose
//     hash is the home); its merge report is the migration.
//
//   - The plan (plan.go) reads the program's licence from Figure 2:
//     a read fences on its own last write and on U, the last write the
//     licence does not cover. Programs in M (Datalog, Datalog(≠)) are
//     coordination-free: only a retract raises U. Every other program
//     raises U on every write. This is the CALM boundary drawn inside
//     one server, per write rather than per program.
//
// Crash-restart recovery is rebroadcast: a restarted shard rebuilds
// from the program plus a replay of the global delta log (plus its
// deterministic share of the initial instance), then rejoins the
// stream. The fault battery reuses the PR 2 FaultPlan machinery —
// duplication, delay, partition windows, crash-restart, all pure
// functions of a seed — on the delta stream, and asserts eventual
// equality with the single-node oracle after recovery.
package cluster
