#!/bin/sh
# check.sh runs the full local gate: vet, build, twenty-four structural gates
# (internal/cluster has grown no wire loop of its own, IndexedInstance no
# second fact store, nor incr's Materialization, whose base is its
# index's edb, internal/incr and internal/ilog start no goroutine,
# internal/datalog starts them in one place, and internal/transducer and
# internal/netsim in one (InOrder's worker set), a fixpoint round never
# materializes its delta as facts, only Stepper.Step's
# four-query arm materialises the system facts S — no insert-only form
# does, and internal/core's TestEveryStrategyCarriesDelta checks that
# every strategy has one — one union-find: co(I) is computed by
# fact.ComponentIndex and nowhere else — and only internal/transducer
# resets a fact.Instance, the Stepper's accumulators and the
# Simulation's delivered set: a reset instance keeps its storage for the
# next transition, so it must not outlive its own — an instance finds
# its columns in a slice and a message buffer builds no Fact.Key string
# — one soundness oracle: only Simulation.transition tests an output
# against the expected answer, and the explorers read its WrongFacts —
# one seeded schedule and one round bound: Simulation.RandomPrefix and
# Simulation.RoundBound, with no RunRandom or CheckComputes beside
# them — and a fact list
# reaches the wire one way: an epoch's chunks, encoded once, copied into
# the line — and a timed phase has one clock: its span, which feeds its
# histogram; no Registry.Span, no time.Now beside a span in
# internal/serve or internal/cluster — and one load generator: go run
# ./bench, with no cmd/calmload or internal/load beside it — and one
# recorder: obs.Tracer, whose one encoder renders every event and span
# line, with no obs.Sink beside it — and one fixpoint loop: ILOG's
# invention and the well-founded Γ run on datalog's stratum loop, with no
# naive loop of their own in internal/ilog or internal/queries — and
# probe tables are open-addressed: no Go map in fact's columnar store,
# whose one slot table keys every arity, and no map[uint64] in
# datalog's join index — and one Figure 2: the cluster plans
# from monotone.Figure2's rows, not from fragment names — and the
# insert-only forms keep no memory of their own: no lock and no
# package-level map or slice in internal/core, whose transducers every
# clone of a simulation shares; a node's memory is the Stepper's — and
# one growth probe: a delta's kind is decided in internal/monotone from
# fact.Fresh over an instance's probe, with no DomainDistinct or
# DomainDisjoint predicate beside it — and one exhaustive search:
# Explore walks the configuration graph to closure, with no depth and no
# schedule tree in internal/transducer — and maintenance keys by ids:
# an incremental apply probes its working state with the matcher's
# ground atoms as interned ids, with no byte-key accessor on
# datalog.Valuation, no string-keyed set or packed key in internal/incr
# (a derived fact's record is its row's), and a pin is a set, not a
# list of facts), the
# exported-identifier ratchet
# (scripts/exports.go), and the test suite
# under the race detector (the fanned-out rounds of the batch fixpoint,
# the epoch-pinned serving core, and the simulation determinism tests
# are the main race-sensitive surfaces). The fault-injection, explorer,
# serving, cluster, incremental-maintenance (its clock and ranks are
# order-dependent state), batch-fixpoint (a position's posting lists
# are built by its first probe, which a fanned-out round's workers may
# race to make) and event-scheduler packages additionally run twice
# under -race
# (-count=2 defeats the test cache and catches order-dependent state),
# the serial span-stream byte-compare runs thirty times under -race,
# internal/transducer coverage is gated at its pre-fault-layer
# baseline (84.0%), internal/core (the strategies whose transitions
# both simulators' hot path runs) at 85.0%, internal/incr at 88.0%,
# internal/queries (the evaluators behind every strategy's output)
# at 90.0%, internal/fact at 88.0%, internal/netsim,
# internal/generate, internal/obs, internal/serve, internal/cluster,
# and internal/admin at 80.0%, and the
# instrumentation's disabled (nil) fast paths allocate nothing and
# inline, so "tracing off" stays ~free.
# Usage: scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo ">> go vet ./..."
go vet ./...

echo ">> go build ./..."
go build ./...

# One server: the request loop and the JSON decode live in
# internal/serve (session.go) and the cluster router is a backend of
# it. A scanner or a decode appearing in internal/cluster is a second
# wire loop growing back, which is how the two drifted before.
echo ">> structural gate: internal/cluster has no wire loop"
if grep -nE 'bufio\.NewScanner|json\.Unmarshal' $(ls internal/cluster/*.go | grep -v '_test\.go$'); then
    echo "check: internal/cluster reads or decodes request lines itself; serve.Session is the one loop"
    exit 1
fi

# One store: the row tables of internal/datalog index.go hold every
# fact of an IndexedInstance once. A *fact.Instance field appearing in
# it is the second store growing back — two shapes written in lockstep,
# which is how a frozen view came to answer Has by scanning a list.
echo ">> structural gate: IndexedInstance has no second store"
if awk '/^type IndexedInstance struct/,/^}/' $(ls internal/datalog/*.go | grep -v '_test\.go$') | grep -n '\*fact\.Instance'; then
    echo "check: IndexedInstance declares a *fact.Instance field; the row tables are its only store"
    exit 1
fi

# One store in incr: a Materialization's index holds every fact, and its
# facts over relations the program does not derive are the base. A
# *fact.Instance field appearing in it is a second copy of the base
# growing back, written in lockstep with the index on every apply.
echo ">> structural gate: Materialization has no second store"
if awk '/^type Materialization struct/,/^}/' $(ls internal/incr/*.go | grep -v '_test\.go$') | grep -n '\*fact\.Instance'; then
    echo "check: Materialization declares a *fact.Instance field; the base is the index's edb"
    exit 1
fi

# One fan-out: a fixpoint goes parallel in the rounds of the batch
# fixpoint (internal/datalog parallel.go, runRound through parallelEach)
# and nowhere else. incr's cone is a couple of facts a write and ilog's
# rounds are that fixpoint's own; a goroutine in either is the second
# and third fan-out growing back, each with its own width knob.
echo ">> structural gate: internal/incr and internal/ilog start no goroutine"
if grep -nE 'go func|sync\.WaitGroup' $(ls internal/incr/*.go internal/ilog/*.go | grep -v '_test\.go$'); then
    echo "check: internal/incr or internal/ilog fans out; datalog's runRound is the one place evaluation does"
    exit 1
fi
echo ">> structural gate: internal/datalog starts goroutines in one place"
n=$(cat $(ls internal/datalog/*.go | grep -v '_test\.go$') | grep -c 'go func')
if [ "$n" -ne 1 ]; then
    echo "check: internal/datalog has $n 'go func' sites, want exactly 1 (parallelEach)"
    exit 1
fi

# One fan-out per explorer layer: ExploreSchedules and netsim.Sweep play
# their schedules through transducer.InOrder (internal/transducer
# inorder.go), on its process-lifetime worker set, and fold them in
# schedule order. A second go statement in either package is a second
# fan-out growing back, one whose fold need not keep that order.
echo ">> structural gate: the explorers start goroutines in one place"
gos=$(grep -nE '^[[:space:]]*go[[:space:]]' $(ls internal/transducer/*.go internal/netsim/*.go | grep -v '_test\.go$') || true)
if [ "$(echo "$gos" | grep -c .)" -ne 1 ] || ! echo "$gos" | grep -q '^internal/transducer/inorder\.go:'; then
    echo "$gos"
    echo "check: internal/transducer or internal/netsim starts a goroutine outside InOrder's worker set"
    exit 1
fi

# A round's delta is rows: each task buffers its new heads as IDs, the
# barrier appends them to the row tables in task order, and the next
# round pins atoms to the row range each table gained. A fixpoint never
# materializes its delta as facts — no fact.Instance per round, no
# Facts() list, no sort — and hands its tables over as the result.
echo ">> structural gate: a fixpoint round never materializes its delta as facts"
if grep -nE '\.Facts\(\)|SortFacts|fact\.NewInstance' internal/datalog/eval.go internal/datalog/parallel.go; then
    echo "check: the fixpoint loop builds facts again; a round's delta is the row range its barrier appended"
    exit 1
fi

# One S: a transition reads the system relations through the System
# view (internal/transducer step.go), by probe. systemFacts materialises
# it, and only the four-query arm of Stepper.Step calls it; a second
# caller is an insert-only form building S again, the cost it exists to
# avoid.
echo ">> structural gate: systemFacts is called only by Step's four-query arm"
calls=$(grep -rn --include='*.go' --exclude='*_test.go' 'systemFacts(' internal cmd calm bench | grep -v 'func (sp \*Stepper) systemFacts(')
if [ "$(echo "$calls" | grep -c .)" -ne 1 ] || ! echo "$calls" | grep -q '^internal/transducer/step\.go:.*j\.Union(sp\.systemFacts(x, j))'; then
    echo "$calls"
    echo "check: systemFacts has a caller besides Stepper.Step's four-query arm"
    exit 1
fi

# The insert-only forms keep no memory of their own. What a node
# carries from one transition to the next (its base, open candidates,
# the K it last evaluated Q on) is the Stepper's per-node memory,
# dropped with the node's state on a crash or a clone. A built
# transducer is shared by every clone the explorer makes, so a memo in
# internal/core would be shared between them: it needs a lock (sync) or
# lives in a package-level map or slice, the memo under a lock that
# the per-node memory replaces.
echo ">> structural gate: the insert-only forms keep no memory of their own"
core_go=$(ls internal/core/*.go | grep -v '_test\.go$')
bad=$(grep -n -E '"sync(/atomic)?"' $core_go || true)
bad=$bad$(awk '
    FNR == 1 { blk = 0 }
    /^var \($/ { blk = 1; next }
    blk && /^\)/ { blk = 0 }
    (blk || /^var /) && /map\[|\[\]|make\(/ { print FILENAME ":" FNR ": " $0 }' $core_go)
if [ -n "$bad" ]; then
    echo "$bad"
    echo "check: internal/core keeps memory of its own (a lock or a package-level map or slice); a node's memory belongs in the Stepper"
    exit 1
fi

# One union-find: fact.ComponentIndex (internal/fact component.go) is
# co(I) for fact.Components, the cluster's component placement and rule
# connectivity (graph+(ϕ)). A parent[ map anywhere else is a second
# union-find growing back, which is how three came to compute the same
# partition.
echo ">> structural gate: one union-find"
if grep -rn --include='*.go' --exclude='*_test.go' 'parent\[' internal cmd calm | grep -v '^internal/fact/component\.go:'; then
    echo "check: a union-find outside internal/fact/component.go; fact.ComponentIndex is the one co(I)"
    exit 1
fi

# One lifetime for a reset: fact.Instance.Reset empties an instance and
# keeps its storage, and the next transition refills it. Only the sets a
# transition owns outright are reset — the Stepper's accumulators, at the
# start of each insert-only Step (internal/transducer step.go), and the
# Simulation's delivered set (sim.go, inbox) — and a caller may read
# them only until the next transition. A Reset anywhere else is an
# instance some reader may still hold being emptied under it.
echo ">> structural gate: only a transition's own sets are Reset"
calls=$(grep -rn --include='*.go' --exclude='*_test.go' '\.Reset()' internal cmd calm bench || true)
bad=$(echo "$calls" | grep . | grep -vE '^internal/transducer/step\.go:[0-9]+:[[:space:]]*sp\.acc\.(Out|Ins|Snd|Scratch)\.Reset\(\)$' |
    grep -vE '^internal/transducer/sim\.go:[0-9]+:[[:space:]]*s\.delivered\.Reset\(\)$' || true)
if [ -n "$bad" ] || [ "$(echo "$calls" | grep -c .)" -ne 5 ]; then
    echo "$calls"
    echo "check: fact.Instance.Reset is called outside Stepper.Step's accumulators and the Simulation's delivered set"
    exit 1
fi

# No map in the small-instance paths: fact.Instance finds its columns
# by a linear scan of a slice (a map ranged over one or two entries
# cost more than the transitions that walk it), and the simulator's
# message buffer logs its arrivals as facts (a Fact.Key string built
# per arrival cost more than the arrival).
echo ">> structural gate: instance columns are a slice, message buffer builds no key"
if grep -nE 'map\[colKey\]|map\[[^]]*\]\*?column\b' $(ls internal/fact/*.go | grep -v '_test\.go$'); then
    echo "check: internal/fact keys columns by a map again; an Instance's directory is a slice"
    exit 1
fi
if grep -nE 'f\.Key\(\)|map\[string\]' internal/transducer/sim.go; then
    echo "check: internal/transducer/sim.go keys facts by strings again; the buffer logs facts as they arrive"
    exit 1
fi

# One soundness oracle: "out(R) stays inside Q(I)" is tested where a
# transition adds its outputs — Simulation.transition (internal/
# transducer sim.go) appends each new output fact outside Want to
# WrongFacts — and both explorers, their drive loop and their verdict
# read WrongFacts. A membership test against the expected answer
# anywhere else in the machine or its schedulers is a second oracle
# growing back: a scan of out(R) after every step, which is how three
# copies of the machine's own check came to sit beside it.
echo ">> structural gate: one soundness oracle"
calls=$(grep -nE '\b(want|allowed|Want)\.Has\(' $(ls internal/transducer/*.go internal/netsim/*.go | grep -v '_test\.go$') || true)
inside=$(awk '/^func \(s \*Simulation\) transition\(/,/^}/' internal/transducer/sim.go | grep -cE '\bs\.Want\.Has\(' || true)
if [ "$(echo "$calls" | grep -c .)" -ne 1 ] || [ "$inside" -ne 1 ]; then
    echo "$calls"
    echo "check: a membership test against the expected answer outside Simulation.transition; read the machine's WrongFacts"
    exit 1
fi

# One seeded schedule, one round bound: Simulation.RandomPrefix is the
# only random schedule — the explorer's seed:k schedules and
# ComputeRun's Seed/RandomSteps (calmsim -seed/-steps) run it — and
# Simulation.RoundBound the only place the default bound 32 + |I| +
# 4|N| is written, so an explicit bound and the default both get the
# fault plan's horizon. "Π computes Q" is judged by ExploreStats.Record
# alone. RunRandom, CheckComputes,
# ConformanceOptions or ComputeRandom in non-test Go, or the bound
# written outside RoundBound, is a second schedule, verdict or bound
# growing back.
echo ">> structural gate: one seeded schedule, one round bound"
if grep -rnwE --include='*.go' --exclude='*_test.go' 'RunRandom|CheckComputes|ConformanceOptions|ComputeRandom' internal cmd calm bench; then
    echo "check: a second random schedule or conformance check; use Simulation.RandomPrefix and ExploreSchedules"
    exit 1
fi
bounds=$(grep -rnE --include='*.go' --exclude='*_test.go' '\b32 ?\+.*4 ?\* ?len\(' internal cmd calm bench || true)
inside=$(awk '/^func \(s \*Simulation\) RoundBound\(/,/^}/' internal/transducer/sim.go | grep -cE '\b32 ?\+.*4 ?\* ?len\(' || true)
if [ "$(echo "$bounds" | grep -c .)" -ne 1 ] || [ "$inside" -ne 1 ]; then
    echo "$bounds"
    echo "check: the default round bound is written outside Simulation.RoundBound"
    exit 1
fi

# One exhaustive search: Explore (internal/transducer explore.go) walks
# the graph of configurations heartbeat and deliver-all transitions
# reach, breadth first with a visited set, until it closes; its only
# bound is the round bound, per level. A depth parameter on Explore, or a
# depth-bounded or recursive schedule enumeration in non-test
# internal/transducer Go, or an integer calmsim -explore, is the
# (2·|N|)^depth tree growing back, which
# checked only prefixes of runs and each level at ≈ 6× the last.
echo ">> structural gate: one exhaustive search"
sig=$(grep -n '^func Explore(' internal/transducer/explore.go || true)
tree=$(grep -nE '\b(depth|remaining|maxDepth) int\b|^[[:space:]]*var [[:alnum:]_]+ func\(' $(ls internal/transducer/*.go | grep -v '_test\.go$') || true)
tree=$tree$(grep -n 'flag\.Int("explore"' cmd/calmsim/main.go || true)
if ! echo "$sig" | grep -qF 'input, want *fact.Instance) (*ScheduleViolation, int, error) {' || [ -n "$tree" ]; then
    echo "$sig"
    echo "$tree"
    echo "check: Explore takes a depth or internal/transducer enumerates a schedule tree; walk the configuration graph to closure"
    exit 1
fi

# One render path: a query or facts line is the epoch's chunks — each
# fact's JSON string encoded once, when it enters a chunk (internal/incr
# wire.go) — copied into the line by serve's factsResponse, a gather
# merging the shards' chunks on the way. A RelText, a FactsText or a
# mergeFactLists in non-test Go is a second path growing back: a
# []string of rendered facts, kept beside the chunks and marshaled again.
echo ">> structural gate: one render path for fact lists"
if grep -rn --include='*.go' --exclude='*_test.go' -E 'RelText|FactsText|mergeFactLists' internal cmd calm bench; then
    echo "check: a second fact-list render path; reads write the epoch's chunks (incr.Wire)"
    exit 1
fi

# One load generator: go run ./bench drives calmd over loopback TCP
# and checks every answer against an oracle (make smoke runs its three
# serving workloads). cmd/calmload and internal/load were a second
# seeded TCP generator beside it that checked only an {"ok":true
# prefix; either directory reappearing is that second generator
# growing back.
echo ">> structural gate: one load generator"
if [ -e cmd/calmload ] || [ -e internal/load ]; then
    echo "check: cmd/calmload or internal/load is back; the load generator is go run ./bench"
    exit 1
fi

# One clock per phase: a span (obs SpanCtx.Start(name, hist)) is a
# phase's only timer, and Finish feeds the phase's histogram and the
# trace ring from one reading. Registry.Span was a second timer beside
# the span, and a time.Now in internal/serve or internal/cluster is a
# phase timed beside its span growing back — two clocks with two
# guards, which can disagree. Four sites remain, each commented "Not a
# span": srv.read_ns and srv.write_ns run from dispatch to response
# across several spans, the last-commit gauge holds an instant, and
# cluster.delivery_lag_ns runs from an append to an apply on another
# goroutine.
echo ">> structural gate: one clock per phase"
if grep -rnE --include='*.go' --exclude='*_test.go' 'func \([a-z]* ?\*?Registry\) Span\(|\.Span\(obs\.' internal cmd calm bench; then
    echo "check: Registry.Span is back; time a phase with SpanCtx.Start(name, hist)"
    exit 1
fi
calls=$(grep -n 'time\.Now()' $(ls internal/serve/*.go internal/cluster/*.go | grep -v '_test\.go$') || true)
bad=$(echo "$calls" | grep . |
    grep -vE '^internal/serve/core\.go:[0-9]+:[[:space:]]*(c\.lastCommit\.Set\(time\.Now\(\)\.UnixNano\(\)\)|start = time\.Now\(\)|t\.enq = time\.Now\(\))$' |
    grep -vE '^internal/cluster/cluster\.go:[0-9]+:[[:space:]]*enq = time\.Now\(\)$' || true)
if [ -n "$bad" ] || [ "$(echo "$calls" | grep -c .)" -ne 4 ]; then
    echo "$calls"
    echo "check: a second clock in internal/serve or internal/cluster; time the phase with its span (SpanCtx.Start(name, hist))"
    exit 1
fi

# One recorder: obs.Tracer records a run's events (Emit) and its
# spans (SpanCtx.Start … Finish) as one record type, and appendRecord
# (internal/obs trace.go) renders every JSONL line, {"ev":…} and
# {"span":…} alike, for a ring (NewTracer) or a stream (NewStream).
# obs.Sink was a second recorder beside it, with its own type, line
# encoder, nil-guard idiom and calmd flag (-trace-spans sized the
# ring). Any of them in non-test Go, or a line opened outside
# appendRecord, is that second recorder growing back.
echo ">> structural gate: one recorder"
if grep -rnE --include='*.go' --exclude='*_test.go' 'type Sink\b|NewSink|appendJSONL|AppendSpanJSON|trace-spans' internal cmd calm bench; then
    echo "check: obs.Sink, its encoder or calmd -trace-spans is back; record through obs.Tracer (NewTracer or NewStream)"
    exit 1
fi
opens=$(grep -rnF --include='*.go' --exclude='*_test.go' -e '`{"ev":`' -e '`{"span":`' internal cmd calm bench || true)
inside=$(awk '/^func appendRecord\(/,/^}/' internal/obs/trace.go | grep -cF -e '`{"ev":`' -e '`{"span":`' || true)
if [ "$(echo "$opens" | grep -c .)" -ne 2 ] || [ "$inside" -ne 2 ]; then
    echo "$opens"
    echo "check: a JSONL record line is opened outside obs appendRecord; one encoder renders every line"
    exit 1
fi

# One fixpoint loop: a least fixpoint is computed by datalog's stratum
# loop (EvalStrata), semi-naively over the rows each round appended.
# wILOG¬'s value invention runs on it through a head hook, and the
# well-founded Γ is one Fixpoint of a semi-positive program. A
# Valuations call, a func gamma or a func fixpoint in internal/ilog or
# internal/queries is a naive loop growing back beside it, one that
# re-enumerates every valuation every round.
echo ">> structural gate: one fixpoint loop"
if grep -nE '\.Valuations\(|func gamma\b|func fixpoint\b' $(ls internal/ilog/*.go internal/queries/*.go | grep -v '_test\.go$'); then
    echo "check: a least-fixpoint loop in internal/ilog or internal/queries; run it on datalog.EvalStrata or Program.Fixpoint"
    exit 1
fi

# Probe tables are open-addressed: fact.TupleIndex keeps the tuples of
# every arity in one linear-probing slot table (internal/fact
# columnar.go), a wide tuple under a hashed key its row confirms, and
# the join index (internal/datalog index.go) keys its posting lists
# with the same table. Any Go map in columnar.go is a second key path
# beside the table (a map[string] over packed bytes for wide tuples was
# one), and a map[uint64] in index.go is a Go map growing back on the
# probe path, which is where a batch fixpoint spent most of its time
# before.
echo ">> structural gate: probe tables are open-addressed"
if grep -nE '(^|[^[:alnum:]_])map\[' internal/fact/columnar.go || grep -n 'map\[uint64\]' internal/datalog/index.go; then
    echo "check: a Go map in internal/fact/columnar.go or a map[uint64] in internal/datalog/index.go; probe through fact.TupleIndex"
    exit 1
fi

# One Figure 2: a program's fragments are Program.Memberships and what
# each fragment licenses is a row of monotone.Figure2. The cluster plans
# from those rows alone. A monotoneFragment, a CoordFenced branch, an
# AllRulesConnected test or a datalog.Frag* constant in its non-test code
# is a second copy of the figure growing back, which is how the planner
# came to fence by program while a retract went unfenced.
echo ">> structural gate: the cluster plans from monotone.Figure2 alone"
if grep -nE '\bmonotoneFragment\b|\bCoordFenced\b|\bAllRulesConnected\b|datalog\.Frag[A-Z]' $(ls internal/cluster/*.go | grep -v '_test\.go$'); then
    echo "check: internal/cluster decides from a fragment by name; read the licence and rows of monotone.Figure2"
    exit 1
fi

# One growth probe: the kind of a delta J against I (Section 3.1) is
# monotone's growth, a count of fact.Fresh over I's probe, and nothing
# else. A monotone.Any, Distinct or Disjoint named in non-test code
# outside internal/monotone is a kind switch growing back beside
# Class.Allows, and a DomainDistinct or DomainDisjoint predicate is the
# string-adom copy of the question, which five places once asked.
echo ">> structural gate: a delta's kind is decided in internal/monotone"
nontest=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/monotone/*')
if grep -nE 'monotone\.(Any|Distinct|Disjoint)\b' $nontest || grep -rnwE --include='*.go' 'DomainDistinct(Fact)?|DomainDisjoint(Fact)?' .; then
    echo "check: a kind is decided outside internal/monotone; ask Class.Allows (growth over fact.Fresh)"
    exit 1
fi

# Maintenance keys by ids: everything one incr apply builds and probes —
# the flow sets and lists, the pins, the spared set, the witness check's
# probes and the head accumulator — is keyed by interned ids, and the
# accept filters read the matcher's ground atoms as ids through
# datalog.Valuation's Head, Pos and Neg. A HeadKey, PosKey or NegKey
# on Valuation, or a map[string]bool, map[string][]fact.Fact or
# map[string]*headEntry in non-test internal/incr, is the packed-key
# path growing back, which built a key string per probe and a map per
# write.
echo ">> structural gate: maintenance keys by ids"
if grep -nE 'func \([[:alnum:]_]* ?\*?Valuation\) (HeadKey|PosKey|NegKey)\(' $(ls internal/datalog/*.go | grep -v '_test\.go$') ||
    grep -nE 'map\[string\](bool|int32|\[\]fact\.Fact|\*headEntry)|fact\.AppendPackedIDs' $(ls internal/incr/*.go | grep -v '_test\.go$') ||
    grep -n 'pinFacts' $(ls internal/datalog/*.go internal/incr/*.go | grep -v '_test\.go$'); then
    echo "check: a byte-key accessor on datalog.Valuation, a string-keyed set or packed key in internal/incr, or a pin as a fact list; key an apply's working state by interned ids, its records by row, and pin a set"
    exit 1
fi

# The exported surface is a ratchet: scripts/exports.go counts the
# exported funcs/methods under internal/ and calm/ that no non-test
# file refers to, and those only their own package refers to. Neither
# may grow past the figure recorded here; a PR that unexports or
# deletes lowers the figure with it.
max_unreferenced=48
max_package_only=16
echo ">> exported-identifier ratchet: unreferenced <= $max_unreferenced, package-only <= $max_package_only"
exports=$(go run scripts/exports.go)
echo "$exports" | sed 's/^/   /'
unref=$(echo "$exports" | sed -n 's/^exports: .*unreferenced=\([0-9]*\).*/\1/p')
ponly=$(echo "$exports" | sed -n 's/^exports: .*package-only=\([0-9]*\).*/\1/p')
if [ -z "$unref" ] || [ -z "$ponly" ]; then
    echo "check: FAILED to read scripts/exports.go counts"
    exit 1
fi
if [ "$unref" -gt "$max_unreferenced" ] || [ "$ponly" -gt "$max_package_only" ]; then
    echo "check: exported surface grew: $unref unreferenced (max $max_unreferenced), $ponly package-only (max $max_package_only); run 'go run scripts/exports.go -v'"
    exit 1
fi

echo ">> go test -race ./..."
go test -race ./...

echo ">> go test -race -count=2 ./internal/transducer/... ./internal/core/... ./internal/serve/... ./internal/cluster/... ./internal/incr/... ./internal/datalog/..."
go test -race -count=2 ./internal/transducer/... ./internal/core/... ./internal/serve/... ./internal/cluster/... ./internal/incr/... ./internal/datalog/...

# The span stream of a serial session is byte-compared between runs;
# a write's fence closing after its response was handed over made that
# flake about one run in six (a read counted as a fence wait it never
# made). Thirty runs keep the ordering fixed.
echo ">> go test -race -count=30 -run TestSpanStreamDeterministic ./internal/serve/"
go test -race -count=30 -run 'TestSpanStreamDeterministic' ./internal/serve/

# The event scheduler's determinism battery runs twice under -race in
# -short mode: the thousand-node acceptance run already executes once
# under -race in the full sweep above, and repeating it doubles the
# gate's wall time for no extra order-dependence coverage.
echo ">> go test -race -count=2 -short ./internal/netsim/..."
go test -race -count=2 -short ./internal/netsim/...

coverage_gate() {
    pkg="$1"
    floor="$2"
    echo ">> coverage gate: $pkg >= ${floor}%"
    cov=$(go test -cover "$pkg" | awk '{for (i=1; i<=NF; i++) if ($i ~ /^[0-9.]+%$/) {sub("%", "", $i); print $i}}')
    if [ -z "$cov" ]; then
        echo "check: FAILED to read $pkg coverage"
        exit 1
    fi
    if ! awk -v c="$cov" -v f="$floor" 'BEGIN { exit !(c >= f) }'; then
        echo "check: $pkg coverage ${cov}% dropped below the ${floor}% baseline"
        exit 1
    fi
    echo "   $pkg coverage: ${cov}%"
}

coverage_gate ./internal/transducer/ 84.0
coverage_gate ./internal/core/ 85.0
coverage_gate ./internal/incr/ 88.0
coverage_gate ./internal/queries/ 90.0
coverage_gate ./internal/fact/ 88.0
coverage_gate ./internal/netsim/ 80.0
coverage_gate ./internal/generate/ 80.0
coverage_gate ./internal/obs/ 80.0
coverage_gate ./internal/serve/ 80.0
coverage_gate ./internal/cluster/ 80.0
coverage_gate ./internal/admin/ 80.0

# Disabled-instrumentation gate, in counters: every call shape the
# engines make per inner-loop iteration with instrumentation off
# allocates nothing (TestDisabledPathsAllocateNothing), and the compiler
# inlines each nil fast path they call, so the disabled cost is a
# branch at the call site. BenchmarkDisabledOverhead still times them,
# for information.
echo ">> disabled-path gate: internal/obs nil fast paths allocate nothing and inline"
if ! go test -count=1 -run '^TestDisabledPathsAllocateNothing$' ./internal/obs/; then
    echo "check: a disabled instrumentation call allocates"
    exit 1
fi
inlined=$(go build -gcflags=-m ./internal/obs 2>&1)
for fn in '(*Counter).Add' '(*Gauge).Set' '(*LatencyHist).Observe' '(*Tracer).Root' '(*Tracer).Emit' \
    'SpanCtx.Start' 'ActiveSpan.Ctx' 'ActiveSpan.SetEpoch' 'ActiveSpan.Finish'; do
    if ! echo "$inlined" | awk -v f="$fn" '$(NF-2) == "can" && $(NF-1) == "inline" && $NF == f { found = 1 } END { exit !found }'; then
        echo "check: $fn, a nil fast path, is no longer inlined (go build -gcflags=-m ./internal/obs)"
        exit 1
    fi
done

echo "check: OK"
