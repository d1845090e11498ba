#!/bin/sh
# bench.sh runs the instrumented benchmark suite and renders the
# results as JSON: one row per benchmark carrying ns/op plus every
# custom metric the benchmarks report (derivations/op, rounds/op,
# msgs/run, msgs/tick, ...), so performance and work-profile changes
# are diffable in review. Committed snapshots are named after the PR
# that produced them (BENCH_PR<n>.json); BENCH_PR7.json is the
# concurrent-serving snapshot, whose CalmloadSerial/CalmloadPipelined
# rows carry the pipelined-vs-serial speedup gate (EXPERIMENTS.md
# PERF.7), BENCH_PR8.json is the sharded-cluster snapshot, whose
# CalmloadShards<n> rows carry the shard-scaling gate (EXPERIMENTS.md
# PERF.8), BENCH_PR9.json is the observability snapshot, whose
# GatherPhases/GatherBaseline rows attribute the router-gather
# slowdown into fanout/merge/render phases (EXPERIMENTS.md PERF.9),
# and BENCH_PR10.json is the event-scheduler snapshot, whose
# NetsimEvent/NetsimTick rows carry the sched-ops gate — the event
# engine must spend >= 10x fewer scheduler operations than the
# tick-walk baseline on the sparse-activity workload at 10^3 nodes
# (EXPERIMENTS.md PERF.10):
#
#	scripts/bench.sh BENCH_PR10.json
#
# Usage: scripts/bench.sh [out.json]   (default: stdout)
# Env:   BENCHTIME          per-benchmark time or count (default 0.5s)
#        CALMLOAD_DURATION  calmload send window per run (default 1500ms)
set -eu

cd "$(dirname "$0")/.."
out="${1:--}"
benchtime="${BENCHTIME:-0.5s}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkNaiveVsSemiNaive|BenchmarkParallelTC|BenchmarkStrategyMessages|BenchmarkNetworkScaling|BenchmarkInputScaling' \
    -benchtime "$benchtime" . >>"$tmp"
go test -run '^$' -bench 'BenchmarkDisabledOverhead|BenchmarkEnabled' \
    -benchtime "$benchtime" ./internal/obs/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkIncr' \
    -benchtime "$benchtime" ./internal/incr/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkPinnedReads|BenchmarkColdReads|BenchmarkWriteCommit|BenchmarkEpochPublish' \
    -benchtime "$benchtime" ./internal/serve/ >>"$tmp"

# Event-scheduler node-count sweep (EXPERIMENTS.md PERF.10): the
# sparse-activity gossip workload (5 scattered facts, neighbor
# routing, one long stall window) at 10^2/10^3/10^4 nodes on the
# event scheduler — events/op, events/s, schedops/op, heapmax —
# against the dense schedule of the same machine (RunToQuiescence;
# row name NetsimTick kept so old snapshots stay comparable) at
# 10^2/10^3, whose schedops/op row is the denominator of the >= 10x
# PR-10 gate.
go test -run '^$' -bench 'BenchmarkNetsimEvent|BenchmarkNetsimTick' \
    -benchtime "$benchtime" ./internal/netsim/ >>"$tmp"

# Gather-phase rows (EXPERIMENTS.md PERF.9): the partitioned
# scatter/gather read path through the router wire loop, with mean
# per-phase attribution (fanout-ns, merge-ns, render-ns) reported from
# the cluster's latency histograms, against the single-shard baseline
# on the same chain and query.
go test -run '^$' -bench 'BenchmarkGatherPhases|BenchmarkGatherBaseline' \
    -benchtime "$benchtime" ./internal/cluster/ >>"$tmp"

# calmload end-to-end rows: the serial single-connection ping-pong
# baseline and the pipelined multi-connection run on the read-heavy
# mix, emitted in go-bench line format so the renderer folds them in.
# Pipelined ops/s >= 2x serial ops/s is the PR-7 acceptance gate.
calmload_duration="${CALMLOAD_DURATION:-1500ms}"
go run ./cmd/calmload -compare -format gobench \
    -duration "$calmload_duration" -read-frac 0.98 -conns 4 -window 32 >>"$tmp"

# Shard-scaling rows (EXPERIMENTS.md PERF.8): the same read-heavy
# monotone mix against an in-process cluster of N=1,2,4 shards, a
# 128-edge chain workload split into N disjoint co(I) components so
# each shard serves a 1/N segment whose closure is ~1/N^2 the size
# (Theorem 5.3 locality — the chain is long enough that query-T
# rendering dominates per-op cost). Clients drive the per-shard
# endpoints directly — coordination-free, no gather — plus one N=4
# row through the scatter/gather router for contrast.
# Shards4 ops/s >= 2.5x Shards1 ops/s is the PR-8 acceptance gate.
for n in 1 2 4; do
    go run ./cmd/calmload -self-shards "$n" -self-chain 128 -format gobench \
        -bench-name "BenchmarkCalmloadShards$n" \
        -duration "$calmload_duration" -read-frac 0.98 -conns 4 -window 32 >>"$tmp"
done
go run ./cmd/calmload -self-shards 4 -self-chain 128 -via-router -format gobench \
    -bench-name BenchmarkCalmloadShards4Router \
    -duration "$calmload_duration" -read-frac 0.98 -conns 4 -window 32 >>"$tmp"

render() {
    awk '
    BEGIN { print "{"; printf "  \"benchmarks\": [" ; sep="" }
    /^goos: /   { goos=$2 }
    /^goarch: / { goarch=$2 }
    /^pkg: /    { pkg=$2 }
    /^Benchmark/ {
        name=$1; sub(/-[0-9]+$/, "", name)
        printf "%s\n    {\"pkg\":\"%s\",\"name\":\"%s\",\"iters\":%s", sep, pkg, name, $2
        for (i = 3; i < NF; i += 2) printf ",\"%s\":%s", $(i+1), $i
        printf "}"
        sep=","
    }
    END {
        print ""
        print "  ],"
        printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\"\n", goos, goarch
        print "}"
    }
    ' "$tmp"
}

if [ "$out" = "-" ]; then
    render
else
    render >"$out"
    echo "bench: wrote $out"
fi
