package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestPartitionedEquivalence is the cross-shard equivalence battery
// for partitioned mode: a seeded driver submits random edge toggles
// over a small shared node pool — components merge and migrate
// constantly — through several router connections, mirroring every
// committed delta into a single-node oracle in submission order
// (writes are driven from one goroutine, so submission order IS
// global log order). At quiesced cuts the gathered reads must be
// byte-identical to the oracle's pure read function, and the shard
// slices must be disjoint: per Theorem 5.3 the answer of a connected
// monotone program on I is the disjoint union of its answers on the
// co(I) components, so fact counts must sum with no overlap.
func TestPartitionedEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, seed := range []int64{1, 2, 3} {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runPartitionedEquivalence(t, shards, seed, 1)
			})
			// Several facts a write: a later fact's bridge migrates what an
			// earlier one of the same record just placed.
			t.Run(fmt.Sprintf("shards=%d/seed=%d/multi-fact", shards, seed), func(t *testing.T) {
				runPartitionedEquivalence(t, shards, seed, 4)
			})
		}
	}
}

// TestMultiFactInsertBridgesItsOwnPlacement: the second fact of one
// insert joins the component the first was just homed in to one homed
// elsewhere. The record must carry the first fact to the winner's shard
// only, not on to the loser's and off it again, which that shard refused
// after the write was logged and half applied.
func TestMultiFactInsertBridgesItsOwnPlacement(t *testing.T) {
	for _, tc := range []struct {
		held, facts []string
	}{
		{nil, []string{"E(x1,x2)", "E(x0,x1)"}},
		{nil, []string{"E(x1,x3)", "E(x0,x1)"}},
		{nil, []string{"E(x1,x4)", "E(x0,x1)"}},
		// Inserted again with the fact that moves it: moved, not left behind too.
		{[]string{"E(x1,x2)"}, []string{"E(x1,x2)", "E(x0,x1)"}},
	} {
		c := newTestCluster(t, tcProgram, strings.Join(tc.held, " "), Options{Shards: 3, Placement: PlaceComponent})
		req, err := json.Marshal(serve.Request{Op: "insert", Facts: tc.facts})
		if err != nil {
			t.Fatal(err)
		}
		got := routerSession(t, NewRouter(c), string(req), `{"op":"query","rel":"T"}`, `{"op":"stats"}`)
		// (A migration counts as a retract and an insert in the answer.)
		if resp := decodeResp(t, got[0]); !resp.OK || resp.Apply == nil || resp.Apply.Inserted-resp.Apply.Retracted != 2-len(tc.held) {
			t.Errorf("%v + insert %v answered %s", tc.held, tc.facts, got[0])
		}
		if resp := decodeResp(t, got[1]); !resp.OK || resp.Count == nil || *resp.Count != 3 {
			t.Errorf("%v + insert %v: T = %s, want its 3 facts", tc.held, tc.facts, got[1])
		}
		if resp := decodeResp(t, got[2]); resp.Stats == nil || resp.Stats.Base != 2 || resp.Stats.Facts != 5 {
			t.Errorf("%v + insert %v: stats %s, want 2 base facts of 5, each on one shard", tc.held, tc.facts, got[2])
		}
	}
}

// runPartitionedEquivalence drives writes of up to batch facts each: a
// retract of one present edge, or an insert of random edges, present
// ones among them.
func runPartitionedEquivalence(t *testing.T, shards int, seed int64, batch int) {
	const (
		conns  = 3
		rounds = 3
		writes = 30
		nodes  = 10
	)
	c := newTestCluster(t, tcProgram, "", Options{Shards: shards, Placement: PlaceComponent})
	if !c.Plan().Partitioned {
		t.Fatal("component placement over tc must partition")
	}
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
	for round := 0; round < rounds; round++ {
		for w := 0; w < writes; w++ {
			e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
			op := "insert"
			if present[e] {
				op = "retract"
			}
			present[e] = !present[e]
			f := []string{fmt.Sprintf("E(p%d,p%d)", e[0], e[1])}
			for op == "insert" && len(f) < batch && rng.Intn(3) > 0 {
				e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
				present[e] = true
				f = append(f, fmt.Sprintf("E(p%d,p%d)", e[0], e[1]))
			}
			resp := cns[rng.Intn(conns)].handle(serve.Request{Op: op, Facts: f}, obs.SpanCtx{})
			if !resp.OK {
				t.Fatalf("round %d write %d (%s %s) failed: %s", round, w, op, f, resp.Err)
			}
			var d incr.Delta
			var fs []fact.Fact
			for _, s := range f {
				fs = append(fs, fact.MustParseFact(s))
			}
			if op == "insert" {
				d.Insert = fs
			} else {
				d.Retract = fs
			}
			if _, err := oracle.Apply(d); err != nil {
				t.Fatalf("oracle apply: %v", err)
			}
		}
		c.Quiesce()
		compareCut(t, c, r, oracle, round)
	}
}

// compareCut byte-compares the gathered reads at a quiesced cut
// against the oracle and checks the Theorem 5.3 disjointness of the
// shard slices.
func compareCut(t *testing.T, c *Cluster, r *Router, oracle *incr.Materialization, round int) {
	t.Helper()
	ep := oracle.Epoch()
	cn := r.newConn()
	for _, req := range []serve.Request{
		{Op: "query", Rel: "T"},
		{Op: "query", Rel: "E"},
		{Op: "facts"},
	} {
		got, err := cn.handle(req, obs.SpanCtx{}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(serve.ReadResponse(ep, req))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("round %d %s %s diverges from oracle:\ncluster: %s\noracle:  %s",
				round, req.Op, req.Rel, got, want)
		}
	}
	stats := cn.handle(serve.Request{Op: "stats"}, obs.SpanCtx{})
	if stats.Stats == nil || stats.Stats.Facts != ep.Len() || stats.Stats.Base != ep.BaseLen() ||
		stats.Stats.Derived != ep.Len()-ep.BaseLen() {
		t.Fatalf("round %d gathered stats %+v != oracle (facts %d, base %d)", round, stats.Stats, ep.Len(), ep.BaseLen())
	}
	if stats.Stats.Seq != c.LogLen() {
		t.Fatalf("round %d quiesced stats seq %d != log tip %d", round, stats.Stats.Seq, c.LogLen())
	}
	// Disjointness: per-shard sizes sum exactly to the oracle sizes.
	// Any double-homed base fact or cross-shard duplicate derivation
	// would make these sums exceed the oracle.
	sumBase, sumAll := 0, 0
	for j := 0; j < c.ShardCount(); j++ {
		sep := c.ShardCore(j).CurrentEpoch()
		sumBase += sep.BaseLen()
		sumAll += sep.Len()
	}
	if sumBase != ep.BaseLen() || sumAll != ep.Len() {
		t.Fatalf("round %d shard slices not disjoint: Σbase=%d (oracle %d), Σfacts=%d (oracle %d)",
			round, sumBase, ep.BaseLen(), sumAll, ep.Len())
	}
}
