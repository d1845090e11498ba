package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/transducer"
)

// faultyPlan is the battery's standard fault cocktail: random
// duplication and delay of replica deliveries, plus a partition window
// isolating shard 1 early in the log. Every decision is a pure
// function of (seed, log position, shard), the transducer fault model
// applied to the cluster's delta stream.
func faultyPlan(seed int64) *transducer.FaultPlan {
	return &transducer.FaultPlan{
		Seed:      seed,
		DupProb:   0.3,
		DelayProb: 0.4,
		MaxDelay:  5,
		Partitions: []transducer.Partition{
			{From: 5, To: 15, Group: []transducer.NodeID{"s1"}},
		},
	}
}

// faultRun drives one complete faulty scenario: seeded edge toggles
// through router connections with faults injected, a crash of one
// shard mid-run (losing its queued and held deliveries), more writes
// while it is down, recovery by log replay, and a final quiesce. It
// returns the final facts line of every shard plus the single-node
// oracle, which replayed EVERY submitted write — including any whose
// ack was lost to the crash: the log records a write before the pumps
// see it, so at-least-once is the contract the oracle must mirror.
func faultRun(t *testing.T, shards int, seed int64, place PlacementKind, crashShard int) (shardFinals []string, oracleFinal string) {
	t.Helper()
	const (
		conns = 3
		nodes = 8
		phase = 20 // writes per phase: pre-crash, down, post-restart
	)
	c := newTestCluster(t, tcProgram, "", Options{
		Shards:    shards,
		Placement: place,
		Faults:    faultyPlan(seed),
	})
	r := NewRouter(c)
	cns := make([]*conn, conns)
	for i := range cns {
		cns[i] = r.newConn()
	}
	oracle, err := incr.New(datalog.MustParseProgram(tcProgram), fact.NewInstance(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	present := make(map[[2]int]bool)
	submit := func(n int, tolerateErrors bool) {
		for w := 0; w < n; w++ {
			e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
			op := "insert"
			if present[e] {
				op = "retract"
			}
			present[e] = !present[e]
			f := fmt.Sprintf("E(f%d,f%d)", e[0], e[1])
			resp := cns[rng.Intn(conns)].handle(serve.Request{Op: op, Facts: []string{f}}, obs.SpanCtx{})
			if !resp.OK && !tolerateErrors {
				t.Fatalf("write %s %s failed: %s", op, f, resp.Err)
			}
			// Valid writes reach the log even when the ack is lost to a
			// down home shard, so the oracle replays them all.
			var d incr.Delta
			fs := []fact.Fact{fact.MustParseFact(f)}
			if op == "insert" {
				d.Insert = fs
			} else {
				d.Retract = fs
			}
			if _, err := oracle.Apply(d); err != nil {
				t.Fatalf("oracle apply: %v", err)
			}
		}
	}

	submit(phase, true) // faults may delay acks but not fail them; partition holds are replica-side only
	if err := c.Crash(crashShard); err != nil {
		t.Fatal(err)
	}
	submit(phase, true) // acks lost when the down shard is the home
	if err := c.Restart(crashShard); err != nil {
		t.Fatal(err)
	}
	submit(phase, true)
	c.Quiesce()

	ep := oracle.Epoch()
	want, err := serve.ReadResponse(ep, serve.Request{Op: "facts"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]string, shards)
	for j := 0; j < shards; j++ {
		b, err := serve.ReadResponse(c.ShardCore(j).CurrentEpoch(), serve.Request{Op: "facts"}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		finals[j] = string(b)
	}
	if c.plan.Partitioned {
		// Partitioned finals are per-shard slices; the cluster-level
		// answer is the gathered read, checked against the oracle here.
		compareCut(t, c, r, oracle, -1)
	}
	return finals, string(want)
}

// TestFaultyConvergenceReplicated: under duplication, delay, a
// partition window, and a crash-restart cycle, every replicated shard
// converges to the byte-exact single-node oracle state. Duplicated
// deliveries must be absorbed (applies are idempotent), held ones
// released, and the crashed shard rebuilt by log replay.
func TestFaultyConvergenceReplicated(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			finals, want := faultRun(t, 3, seed, PlaceHash, 1)
			for j, got := range finals {
				if got != want {
					t.Errorf("shard %d diverges from oracle after faults:\nshard:  %s\noracle: %s", j, got, want)
				}
			}
		})
	}
}

// TestFaultyConvergencePartitioned: the same cocktail in partitioned
// mode, where the crash also loses migration traffic in flight. After
// recovery the gathered answer equals the oracle and the shard slices
// are disjoint again (checked inside faultRun via compareCut).
func TestFaultyConvergencePartitioned(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faultRun(t, 2, seed, PlaceComponent, 0)
		})
	}
}

// TestFaultDeterministicReplay: the entire faulty scenario is a pure
// function of its seed — rerunning it reproduces every shard's final
// state byte for byte. This is what makes fault-battery failures
// debuggable: a failing seed replays identically under a debugger.
func TestFaultDeterministicReplay(t *testing.T) {
	a1, o1 := faultRun(t, 3, 7, PlaceHash, 1)
	a2, o2 := faultRun(t, 3, 7, PlaceHash, 1)
	if o1 != o2 {
		t.Fatalf("oracle final states differ across identical runs:\n%s\n%s", o1, o2)
	}
	for j := range a1 {
		if a1[j] != a2[j] {
			t.Errorf("shard %d final state differs across identical seed-7 runs:\nrun1: %s\nrun2: %s", j, a1[j], a2[j])
		}
	}
}

// TestFaultPlanHooks pins the exported transducer hooks the cluster
// relies on: decisions are pure (same inputs, same answer) and
// actually fire at the configured probabilities over a realistic
// clock range.
func TestFaultPlanHooks(t *testing.T) {
	p := faultyPlan(42)
	f := fact.MustParseFact("E(a,b)")
	dups, holds := 0, 0
	for g := 1; g <= 200; g++ {
		for _, node := range []transducer.NodeID{"s0", "s1", "s2"} {
			d1 := p.ExtraCopies(g, routerNode, node, f)
			h1 := p.HoldFor(g, routerNode, node, f)
			if d1 != p.ExtraCopies(g, routerNode, node, f) || h1 != p.HoldFor(g, routerNode, node, f) {
				t.Fatalf("fault decision at (g=%d, %s) is not pure", g, node)
			}
			if d1 > 0 {
				dups++
			}
			if h1 > 0 {
				holds++
			}
			if h1 > p.MaxDelay && !inPartitionWindow(g) {
				t.Fatalf("hold %d exceeds MaxDelay %d outside the partition window", h1, p.MaxDelay)
			}
		}
	}
	if dups == 0 || holds == 0 {
		t.Fatalf("plan never fired: %d dups, %d holds over 600 deliveries", dups, holds)
	}
}

func inPartitionWindow(g int) bool { return g >= 5 && g < 15 }

// homedOn returns the first count of the facts mk(0), mk(1), ... whose
// replicated home, the hash of the fact's key, is shard j of n.
func homedOn(j, n, count int, mk func(int) string) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		if f := mk(i); hashShard(fact.MustParseFact(f).Key(), n) == j {
			out = append(out, f)
		}
	}
	return out
}

// TestAcknowledgedRetractIsNeverStale: once a retract is acknowledged,
// no read through the router shows what it removed. Two replicated
// shards run TC, and a partition holds every delivery to s1 from log
// position 2 on. Connection A (affinity s0) inserts E(x,y) homed on s0,
// and connection B (affinity s1) waits until s1 derives T(x,y). A then
// inserts 150 edges s1 holds and retracts E(x,y): s0 acks at once,
// while s1 must release the holds before it can apply the retract. A
// read that fences only on B's own writes answers from s1's backlog
// and serves T(x,y); the retract raises U, so the read waits for s1.
func TestAcknowledgedRetractIsNeverStale(t *testing.T) {
	const trials, backlog = 20, 150
	// E(pK,qK) always hashes to shard 1 at two shards (its key bytes'
	// low bits cancel), so the watched edge is E(pK,qK+1).
	e := homedOn(0, 2, 1, func(i int) string { return fmt.Sprintf("E(p%d,q%d)", i, i+1) })[0]
	tf := `"T` + e[1:] + `"`
	edges := homedOn(0, 2, backlog, func(i int) string { return fmt.Sprintf("E(c%d,c%d)", i, i+1) })
	stale := 0
	for trial := 0; trial < trials; trial++ {
		c := newTestCluster(t, tcProgram, "", Options{Shards: 2, Faults: &transducer.FaultPlan{
			Partitions: []transducer.Partition{{From: 2, To: 100000, Group: []transducer.NodeID{"s1"}}},
		}})
		r := NewRouter(c)
		a, b := r.newConn(), r.newConn()
		do := func(cn *conn, op string, facts ...string) string {
			resp := cn.handle(serve.Request{Op: op, Facts: facts, Rel: "T"}, obs.SpanCtx{})
			if !resp.OK {
				t.Fatalf("%s %v: %s", op, facts, resp.Err)
			}
			return encodeResp(t, resp)
		}
		do(a, "insert", e)
		for !strings.Contains(do(b, "query"), tf) {
			runtime.Gosched()
		}
		for _, f := range edges {
			do(a, "insert", f)
		}
		do(a, "retract", e)
		if strings.Contains(do(b, "query"), tf) {
			stale++
		}
		c.Close()
	}
	if stale > 0 {
		t.Fatalf("%d of %d reads after an acknowledged retract of %s still showed %s", stale, trials, e, tf)
	}
}

// TestRetractDuringMigrationIsNeverStale: an acknowledged retract is
// not served stale by a partitioned read while the fact's migration is
// in flight. Two shards place TC's input by component. E(a,b) lives on
// s1; connection C writes a 300-edge chain homed on s1 without waiting,
// which keeps s1 busy; D bridges with E(b,x), whose component is homed
// on s0 and absorbs a's, so one log record takes E(a,b) off s1 and puts
// it on s0; A retracts E(a,b), which s0 alone holds now and acks. A
// gather by B that fences only on its own writes pins s1 before it has
// applied the migration, and shows T(a,b). The retract raises U to the
// migrating write, so the read waits for s1 to apply it.
func TestRetractDuringMigrationIsNeverStale(t *testing.T) {
	const trials, chain = 20, 300
	// A component is homed by its least value (by string).
	value := func(prefix string, shard int) string {
		for i := 0; ; i++ {
			if v := fmt.Sprintf("%s%d", prefix, i); hashShard(v, 2) == shard {
				return v
			}
		}
	}
	a := value("p", 1)
	b, x := "q"+a[1:], value("e", 0) // "eK" < "pK": x's component absorbs a's
	e, tf := "E("+a+","+b+")", `"T(`+a+","+b+`)"`
	c0 := value("c", 1)
	long := []string{"E(" + c0 + "," + c0 + "_1)"}
	for i := 1; i < chain; i++ {
		long = append(long, fmt.Sprintf("E(%s_%d,%s_%d)", c0, i, c0, i+1))
	}
	stale := 0
	for trial := 0; trial < trials; trial++ {
		c := newTestCluster(t, tcProgram, "", Options{Shards: 2, Placement: PlaceComponent})
		r := NewRouter(c)
		cA, cB, cC, cD := r.newConn(), r.newConn(), r.newConn(), r.newConn()
		do := func(cn *conn, op string, facts ...string) string {
			resp := cn.handle(serve.Request{Op: op, Facts: facts, Rel: "T"}, obs.SpanCtx{})
			if !resp.OK {
				t.Errorf("%s %v: %s", op, facts, resp.Err)
			}
			return encodeResp(t, resp)
		}
		logged := func(g int) {
			for {
				c.mu.Lock()
				n := len(c.log)
				c.mu.Unlock()
				if n >= g {
					return
				}
				runtime.Gosched()
			}
		}
		do(cA, "insert", e)
		done := make(chan bool, 2)
		go func() { do(cC, "insert", long...); done <- true }()
		logged(2)
		go func() { do(cD, "insert", "E("+b+","+x+")"); done <- true }()
		logged(3)
		do(cA, "retract", e)
		if strings.Contains(do(cB, "query"), tf) {
			stale++
		}
		<-done
		<-done
		c.Close()
	}
	if stale > 0 {
		t.Fatalf("%d of %d reads after an acknowledged retract of %s still showed %s", stale, trials, e, tf)
	}
}
