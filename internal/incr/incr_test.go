package incr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/obs"
)

const tcProg = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
`

// noLoopProg is the paper's NoLoop-style stratified-negation program:
// nodes not on a cycle, over reachability.
const noLoopProg = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
OnLoop(x) :- T(x,x).
Off(x) :- E(x,y), !OnLoop(x).
Off(y) :- E(x,y), !OnLoop(y).
`

func mustNew(t *testing.T, src string, init *fact.Instance, opts Options) *Materialization {
	t.Helper()
	m, err := New(datalog.MustParseProgram(src), init, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// checkAgainstRecompute fails unless the materialization equals the
// full stratified recomputation of its base and Verify passes.
func checkAgainstRecompute(t *testing.T, m *Materialization) {
	t.Helper()
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// recOf returns the record of f's row, zero when f has none.
func recOf(m *Materialization, f string) datalog.Support {
	if d := m.rec(fact.MustParseFact(f)); d != nil {
		return *d
	}
	return datalog.Support{}
}

// eachDerived calls fn with every derived fact of m and its row's
// support record.
func eachDerived(m *Materialization, fn func(f fact.Fact, d datalog.Support)) {
	for id := range m.byHead {
		for _, f := range m.x.RelList(string(fact.Symbol(id))) {
			fn(f, *m.rec(f))
		}
	}
}

func TestInitialBuildEqualsRecompute(t *testing.T) {
	m := mustNew(t, tcProg, generate.Path("v", 5), Options{})
	checkAgainstRecompute(t, m)
	if got := len(m.rel("T")); got != 15 {
		t.Fatalf("|T| = %d, want 15 on a 5-edge path", got)
	}
}

func TestInsertPropagates(t *testing.T) {
	m := mustNew(t, tcProg, generate.Path("v", 3), Options{})
	st, err := m.Apply(Delta{Insert: []fact.Fact{fact.MustParseFact("E(v3,v4)")}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.BaseInserted != 1 || st.DerivedAdded == 0 {
		t.Fatalf("stats = %+v, want 1 base insert with derived additions", st)
	}
	if !m.Has(fact.MustParseFact("T(v0,v4)")) {
		t.Fatalf("T(v0,v4) not derived after inserting E(v3,v4)")
	}
	checkAgainstRecompute(t, m)
}

func TestRetractCascades(t *testing.T) {
	m := mustNew(t, tcProg, generate.Path("v", 4), Options{})
	st, err := m.Apply(Delta{Retract: []fact.Fact{fact.MustParseFact("E(v1,v2)")}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st.BaseRetracted != 1 || st.DerivedRemoved == 0 {
		t.Fatalf("stats = %+v, want 1 base retract with derived removals", st)
	}
	if m.Has(fact.MustParseFact("T(v0,v4)")) {
		t.Fatalf("T(v0,v4) still materialized after cutting the path")
	}
	checkAgainstRecompute(t, m)
}

// TestSupportCountsSurviveSharedDerivations is the classic counting
// case: a diamond gives T(a,d) two derivations; deleting one side must
// decrement, not delete.
func TestSupportCountsSurviveSharedDerivations(t *testing.T) {
	init := fact.MustParseInstance(`
		E(a,b), E(b,d)
		E(a,c), E(c,d)
	`)
	m := mustNew(t, tcProg, init, Options{})
	ad := fact.MustParseFact("T(a,d)")
	if n := recOf(m, "T(a,d)").N; n != 2 {
		t.Fatalf("Support(T(a,d)) = %d, want 2", n)
	}
	if _, err := m.Apply(Delta{Retract: []fact.Fact{fact.MustParseFact("E(b,d)")}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !m.Has(ad) {
		t.Fatalf("T(a,d) deleted despite surviving derivation via c")
	}
	if n := recOf(m, "T(a,d)").N; n != 1 {
		t.Fatalf("Support(T(a,d)) = %d after retract, want 1", n)
	}
	checkAgainstRecompute(t, m)
}

// TestNegationFlips exercises the recursive path: inserting an edge that
// closes a cycle flips Off facts away; retracting it flips them back.
func TestNegationFlips(t *testing.T) {
	m := mustNew(t, noLoopProg, generate.Path("v", 3), Options{})
	off0 := fact.MustParseFact("Off(v0)")
	if !m.Has(off0) {
		t.Fatalf("Off(v0) missing on an acyclic path")
	}
	back := fact.MustParseFact("E(v3,v0)")
	if _, err := m.Apply(Delta{Insert: []fact.Fact{back}}); err != nil {
		t.Fatalf("Apply insert: %v", err)
	}
	if m.Has(off0) {
		t.Fatalf("Off(v0) survived closing the cycle")
	}
	checkAgainstRecompute(t, m)
	if _, err := m.Apply(Delta{Retract: []fact.Fact{back}}); err != nil {
		t.Fatalf("Apply retract: %v", err)
	}
	if !m.Has(off0) {
		t.Fatalf("Off(v0) not rederived after reopening the cycle")
	}
	checkAgainstRecompute(t, m)
}

func TestNoOpDeltaDoesNothing(t *testing.T) {
	m := mustNew(t, tcProg, generate.Path("v", 3), Options{})
	seq := m.Seq()
	st, err := m.Apply(Delta{
		Insert:  []fact.Fact{fact.MustParseFact("E(v0,v1)")}, // already present
		Retract: []fact.Fact{fact.MustParseFact("E(q,q)")},   // absent
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if st != (ApplyStats{}) {
		t.Fatalf("no-op delta produced stats %+v", st)
	}
	if m.Seq() != seq {
		t.Fatalf("no-op delta advanced seq")
	}
}

func TestDeltaValidation(t *testing.T) {
	m := mustNew(t, tcProg, nil, Options{})
	cases := []struct {
		name string
		d    Delta
	}{
		{"idb insert", Delta{Insert: []fact.Fact{fact.MustParseFact("T(a,b)")}}},
		{"idb retract", Delta{Retract: []fact.Fact{fact.MustParseFact("T(a,b)")}}},
		{"arity mismatch", Delta{Insert: []fact.Fact{fact.MustParseFact("E(a)")}}},
		{"insert and retract", Delta{
			Insert:  []fact.Fact{fact.MustParseFact("E(a,b)")},
			Retract: []fact.Fact{fact.MustParseFact("E(a,b)")},
		}},
		{"nul byte", Delta{Insert: []fact.Fact{fact.New("E", "a", "b\x00c")}}},
	}
	for _, tc := range cases {
		if _, err := m.Apply(tc.d); err == nil {
			t.Errorf("%s: Apply accepted invalid delta", tc.name)
		}
	}
	// Validation failures must not poison the materialization.
	if _, err := m.Apply(Delta{Insert: []fact.Fact{fact.MustParseFact("E(a,b)")}}); err != nil {
		t.Fatalf("Apply after rejected deltas: %v", err)
	}
	checkAgainstRecompute(t, m)
}

func TestUnknownRelationsPassThrough(t *testing.T) {
	m := mustNew(t, tcProg, nil, Options{})
	f := fact.MustParseFact("Meta(run1)")
	if _, err := m.Apply(Delta{Insert: []fact.Fact{f}}); err != nil {
		t.Fatalf("Apply unknown rel: %v", err)
	}
	if !m.Has(f) {
		t.Fatalf("unknown-relation fact not materialized")
	}
	if _, err := m.Apply(Delta{Retract: []fact.Fact{f}}); err != nil {
		t.Fatalf("retract unknown rel: %v", err)
	}
	if m.Has(f) {
		t.Fatalf("unknown-relation fact not retracted")
	}
	checkAgainstRecompute(t, m)
}

// TestEventStreamDeterministic checks the two-plane contract: the
// incr event stream is a function of the update history, byte-identical
// from one run to the next.
func TestEventStreamDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		m := mustNew(t, noLoopProg, generate.Path("v", 4), Options{Tracer: obs.NewStream(&buf)})
		deltas := []Delta{
			{Insert: []fact.Fact{fact.MustParseFact("E(v4,v0)"), fact.MustParseFact("E(v2,v2)")}},
			{Retract: []fact.Fact{fact.MustParseFact("E(v2,v2)"), fact.MustParseFact("E(v1,v2)")}},
			{Insert: []fact.Fact{fact.MustParseFact("E(v1,v2)")}, Retract: []fact.Fact{fact.MustParseFact("E(v4,v0)")}},
		}
		for i, d := range deltas {
			if _, err := m.Apply(d); err != nil {
				t.Fatalf("delta %d: %v", i, err)
			}
		}
		checkAgainstRecompute(t, m)
		return buf.String()
	}
	want := run()
	if !strings.Contains(want, obs.EvIncrApply) || !strings.Contains(want, obs.EvIncrStratum) {
		t.Fatalf("event stream missing incr kinds:\n%s", want)
	}
	if got := run(); got != want {
		t.Fatalf("event stream diverged between runs:\n--- first ---\n%s--- second ---\n%s", want, got)
	}
}

func TestCountersPublished(t *testing.T) {
	reg := obs.NewRegistry()
	m := mustNew(t, tcProg, generate.Path("v", 3), Options{Reg: reg})
	if _, err := m.Apply(Delta{Retract: []fact.Fact{fact.MustParseFact("E(v0,v1)")}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// A retraction from recursive TC reaches facts of a recursive
	// component: what it removes counts as over-deleted.
	snap := reg.Snapshot()
	for _, name := range []string{obs.IncrApplies, obs.IncrBaseInserted, obs.IncrDerivedAdded, obs.IncrBaseRetracted, obs.IncrDerivedRemoved, obs.IncrSupportIncrements, obs.IncrSupportDecrements, obs.IncrOverdeleted} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s not published (snapshot %v)", name, snap.Counters)
		}
	}
	// One edge of a diamond going spares T(a,d), the other side's; the
	// second, with a longer way round left, sends it through delete and
	// rederive.
	reg3 := obs.NewRegistry()
	m3 := mustNew(t, tcProg, fact.MustParseInstance("E(a,b) E(b,d) E(a,c) E(c,d) E(c,e) E(e,d)"), Options{Reg: reg3})
	for _, f := range []string{"E(b,d)", "E(c,d)"} {
		if _, err := m3.Apply(Delta{Retract: []fact.Fact{fact.MustParseFact(f)}}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if c := reg3.Snapshot().Counters; c[obs.IncrKept] == 0 || c[obs.IncrRederived] == 0 {
		t.Errorf("kept %d, rederived %d: both want publishing", c[obs.IncrKept], c[obs.IncrRederived])
	}
	// A non-recursive stratum deletes by counting, which decrements.
	reg2 := obs.NewRegistry()
	m2 := mustNew(t, "P(x) :- E(x,y).\n", fact.MustParseInstance("E(a,b), E(a,c)"), Options{Reg: reg2})
	if _, err := m2.Apply(Delta{Retract: []fact.Fact{fact.MustParseFact("E(a,b)")}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if reg2.Snapshot().Counters[obs.IncrSupportDecrements] == 0 {
		t.Errorf("counting delete published no support decrements")
	}
	if snap.Latencies[obs.IncrApplyNs].Count == 0 {
		t.Errorf("apply span histogram empty")
	}
}

// TestEpochRelSortsOncePerEpoch: an epoch's sorted list of a relation
// is built on first use and shared after; a later epoch has its own,
// and the earlier one still answers as of its commit. Asking for
// relations an epoch does not hold leaves nothing behind in it.
func TestEpochRelSortsOncePerEpoch(t *testing.T) {
	m := mustNew(t, tcProg, generate.Path("v", 4), Options{})
	e1 := m.Epoch()
	a, b := e1.Rel("T"), e1.Rel("T")
	if len(a) != 10 || &a[0] != &b[0] {
		t.Fatalf("epoch 1: |T| = %d, second call shares the first's list: %v", len(a), len(a) > 0 && &a[0] == &b[0])
	}
	if !reflect.DeepEqual(a, m.rel("T")) {
		t.Errorf("epoch list %v differs from the materialization's %v", a, m.rel("T"))
	}
	if _, err := m.Apply(Delta{Insert: []fact.Fact{fact.MustParseFact("E(v4,v5)")}}); err != nil {
		t.Fatal(err)
	}
	if e2 := m.Epoch(); len(e2.Rel("T")) != 15 || len(e1.Rel("T")) != 10 {
		t.Errorf("after a commit: new epoch |T| = %d (want 15), old epoch |T| = %d (want 10)", len(e2.Rel("T")), len(e1.Rel("T")))
	}
	for i := 0; i < 1000; i++ {
		if fs := e1.Rel(fmt.Sprintf("junk%d", i)); len(fs) != 0 {
			t.Fatalf("junk%d: %v", i, fs)
		}
	}
	if len(e1.runs) != 2 {
		t.Errorf("epoch keeps %d runs after 1000 reads of relations it does not hold, want 2 (E, T)", len(e1.runs))
	}
}

// TestWriteOnlyCommitsStayBounded: ten thousand commits that nobody
// reads — over a T nobody ever read, over one read once, and with no
// Epoch() after the first — leave the delta an unread run carries, the
// flow recorded for the next epoch and the heap bounded: past foldShare
// of the relation the writer folds, re-snapshots or stops following.
func TestWriteOnlyCommitsStayBounded(t *testing.T) {
	edge := func(i int) []fact.Fact {
		return []fact.Fact{fact.New("E", fact.Value(fmt.Sprintf("w%d", i%200)), fact.Value(fmt.Sprintf("x%d", i%200)))}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, mode := range []string{"never read", "read once", "published once"} {
		m := mustNew(t, tcProg, generate.Path("v", 16), Options{})
		if e := m.Epoch(); mode == "read once" {
			e.Wire("")
		}
		var before uint64
		for i := 0; i < 10000; i++ {
			if i == 1000 {
				before = heap() // the 200 churned edges are interned and indexed by now
			}
			d := Delta{Insert: edge(i)}
			if i >= 50 {
				d.Retract = edge(i - 50)
			}
			if _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			if mode == "published once" {
				for rel, net := range m.flow {
					if net != nil && len(net.add)+len(net.del) > m.runs[rel].n/foldShare {
						t.Fatalf("%s, apply %d: %d+%d facts of flow recorded for %s, a relation of %d", mode, i, len(net.add), len(net.del), rel, m.runs[rel].n)
					}
				}
				continue
			}
			m.Epoch()
			for rel, r := range m.runs {
				if r.base.Load() != nil && len(r.add)+len(r.del) > r.n/foldShare {
					t.Fatalf("%s, commit %d: %s carries a delta of %d+%d over %d facts", mode, i, rel, len(r.add), len(r.del), r.n)
				}
			}
			if len(m.flow) != 0 {
				t.Fatalf("%s, commit %d: %d relations of flow left after Epoch()", mode, i, len(m.flow))
			}
		}
		if after := heap(); after > before+1<<20 {
			t.Errorf("%s: heap grew %d → %d bytes over 9000 commits", mode, before, after)
		}
		if got, want := m.Epoch().Rel("T"), m.rel("T"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after 10000 commits T = %d facts, the materialization holds %d", mode, len(got), len(want))
		}
		eachDerived(m, func(f fact.Fact, d datalog.Support) {
			if d.N == 0 || d.Rank == 0 {
				t.Errorf("%s: after 10000 commits %v carries support %+v", mode, f, d)
			}
		})
	}
}

// TestChunkFillStaysBounded: ten thousand seeded commits of random
// edges in and out, among the nodes of a chain and sorting between its
// facts, with reads of the newest epoch in between (some commits go
// unread, so a run may carry a delta past several). Whatever splits and
// joins the patches made, every built run holds at most
// 2·⌈|R|/chunkSize⌉ + 1 chunks, none empty and none past 2·chunkSize,
// and a run retains at most 64 B a fact — a run of facts and their
// rendered text took about 80.
func TestChunkFillStaysBounded(t *testing.T) {
	commits := 10000
	if testing.Short() {
		commits = 2000
	}
	m := mustNew(t, tcProg, generate.Path("c", 64), Options{})
	rng := rand.New(rand.NewSource(34))
	node := func() fact.Value { return fact.Value(fmt.Sprintf("c%dr", rng.Intn(200))) }
	var live []fact.Fact
	check := func(when string) {
		for rel, r := range m.runs {
			s := r.got.Load()
			if s == nil {
				continue
			}
			n := 0
			for _, c := range s.chunks {
				if c.len() == 0 || c.len() > 2*chunkSize {
					t.Fatalf("%s: %s has a chunk of %d facts", when, rel, c.len())
				}
				n += c.len()
			}
			if bound := 2*((r.n+chunkSize-1)/chunkSize) + 1; n != r.n || len(s.chunks) > bound {
				t.Fatalf("%s: %s holds %d facts in %d chunks, want %d facts in at most %d", when, rel, n, len(s.chunks), r.n, bound)
			}
		}
	}
	for i := 0; i < commits; i++ {
		var d Delta
		for k := rng.Intn(4); k > 0; k-- {
			d.Insert = append(d.Insert, fact.New("E", node(), node()))
		}
		for k := rng.Intn(4); k > 0 && len(live) > 40; k-- {
			j := rng.Intn(len(live))
			d.Retract = append(d.Retract, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		d.Insert = slices.DeleteFunc(d.Insert, func(f fact.Fact) bool { return m.Has(f) || slices.ContainsFunc(d.Retract, f.Equal) })
		d.Insert = slices.CompactFunc(d.Insert, fact.Fact.Equal)
		if _, err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
		for _, f := range d.Insert {
			if !slices.ContainsFunc(live, f.Equal) {
				live = append(live, f)
			}
		}
		e := m.Epoch()
		if rng.Intn(3) > 0 {
			e.Wire([]string{"", "E", "T"}[rng.Intn(3)])
			check(fmt.Sprintf("commit %d", i))
		}
	}
	e := m.Epoch()
	e.Wire("")
	var got []fact.Fact // read off the chunks: a Rel list would count as retained below
	for _, c := range e.runs["T"].get().chunks {
		for i := range c.len() {
			got = append(got, c.fact(i))
		}
	}
	if want := m.rel("T"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d commits T = %d facts, the materialization holds %d", commits, len(got), len(want))
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// What the runs retain: the heap with every run built, against the
	// heap once the materialization lets them go and builds none.
	n := e.Len()
	got, e = nil, nil
	with := heap()
	m.runs = nil
	without := heap()
	runtime.KeepAlive(m)
	per := (float64(with) - float64(without)) / float64(n)
	t.Logf("%d facts in runs retain %.1f B a fact", n, per)
	if per > 64 {
		t.Errorf("a run retains %.1f B a fact, want at most 64", per)
	}
}

// churnNamespace returns a materialization of TC over a chain of n edges
// beside a private 4-node path, and one round of the serving churn on
// it: retract the path's middle edge (four facts go with it), insert it
// again.
func churnNamespace(t *testing.T, n int) (*Materialization, func()) {
	base := generate.Path("c", n+1)
	for _, e := range [][2]fact.Value{{"p0", "p1"}, {"p1", "p2"}, {"p2", "p3"}} {
		base.Add(fact.New("E", e[0], e[1]))
	}
	m := mustNew(t, tcProg, base, Options{})
	mid := []fact.Fact{fact.New("E", "p1", "p2")}
	return m, func() {
		for _, d := range []Delta{{Retract: mid}, {Insert: mid}} {
			if st, err := m.Apply(d); err != nil || st.BaseInserted+st.BaseRetracted != 1 {
				t.Fatalf("apply %+v: %+v, %v", d, st, err)
			}
		}
	}
}

// TestRetractCostsItsCone is the counter that gates the row index and
// the apply's id-keyed working state (same input, same number): what a
// one-edge retract and re-insert allocates follows the cone it moves,
// not the relation it moves in — at most 90 objects at chain-64 (86
// measured; 102 when a record lived in a map beside the rows and
// allocated its key, 190 when the apply keyed its sets by packed-key
// strings), allocations under 1.05x and bytes under 1.25x from there to
// chain-256, a T fifteen times the size — and ten thousand rounds leave
// neither dead rows (a gone fact's record is its row's) nor a derived
// fact without its support count, nor heap behind.
func TestRetractCostsItsCone(t *testing.T) {
	measure := func(n int) (allocs, bytes float64, size int) {
		m, round := churnNamespace(t, n)
		round() // the first freeze is behind us
		allocs = testing.AllocsPerRun(50, round)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 50, len(m.rel("T"))
	}
	sa, sb, nSmall := measure(64)
	la, lb, nLarge := measure(256)
	t.Logf("retract + re-insert: %.0f allocs, %.0f B at |T| = %d; %.0f allocs, %.0f B at |T| = %d", sa, sb, nSmall, la, lb, nLarge)
	if nLarge < 15*nSmall {
		t.Fatalf("|T| grew %d → %d, want about 15x", nSmall, nLarge)
	}
	if sa > 90 {
		t.Errorf("a round allocates %.0f objects at |T| = %d, want at most 90", sa, nSmall)
	}
	if la >= 1.05*sa || lb >= 1.25*sb {
		t.Errorf("a round grew %.0f → %.0f allocations (≥ 1.05x), %.0f → %.0f bytes (≥ 1.25x) while |T| grew %d → %d", sa, la, sb, lb, nSmall, nLarge)
	}
	if lb >= 32*float64(nLarge) {
		t.Errorf("%.0f bytes a round over a T of %d facts: a list of the relation is being copied", lb, nLarge)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	m, round := churnNamespace(t, 64)
	var early uint64
	for i := 0; i < 10000; i++ {
		if i == 1000 {
			early = heap()
		}
		round()
		// Two relations, each under datalog's compaction floor of 64 dead
		// rows or at most as many dead as live, and the last retract's cone.
		if rows, live := m.x.Rows(), m.x.Len(); rows > 2*live+2*64+8 {
			t.Fatalf("round %d: the index holds %d rows for %d facts", i, rows, live)
		}
		// A walk of the derived facts every hundredth round: one a round
		// would be most of the test's time, and Verify below checks every
		// count exactly.
		if i%100 == 0 {
			eachDerived(m, func(f fact.Fact, d datalog.Support) {
				if d.N == 0 {
					t.Fatalf("round %d: derived fact %v carries no support", i, f)
				}
			})
		}
	}
	if late := heap(); late > early+1<<20 {
		t.Errorf("heap grew %d → %d bytes over 9000 rounds", early, late)
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

// TestApplyStatsArePinned replays the shape of the serving benchmark's
// serial write stream — one-edge inserts and retracts over a 4-node
// namespace beside a chain-64 base, an edge retracted when present and
// inserted when absent — and sums every ApplyStats field. The totals
// are pinned: how the apply keys the facts it touches must move no
// count. The second program adds negation over the recursive T, so the
// stream also moves negated pins, the witness check and the cycles it
// spares or over-deletes.
func TestApplyStatsArePinned(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      ApplyStats
	}{
		{"tc", tcProg, ApplyStats{BaseInserted: 1204, BaseRetracted: 1196, DerivedAdded: 2302, DerivedRemoved: 2286,
			Overdeleted: 3020, Rederived: 734, Kept: 4107, SupportIncrements: 9020, SupportDecrements: 8980}},
		{"noloop", noLoopProg, ApplyStats{BaseInserted: 1204, BaseRetracted: 1196, DerivedAdded: 3742, DerivedRemoved: 3722,
			Overdeleted: 3979, Rederived: 1022, Kept: 4107, SupportIncrements: 11711, SupportDecrements: 11667}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustNew(t, tc.src, generate.Path("c", 65), Options{})
			rng := rand.New(rand.NewSource(55))
			present := make(map[[2]int]bool)
			var sum ApplyStats
			for w := 0; w < 2400; w++ {
				i, j := rng.Intn(4), rng.Intn(3)
				if j >= i {
					j++
				}
				k := [2]int{i, j}
				e := []fact.Fact{fact.New("E", fact.Value(fmt.Sprintf("w%d", i)), fact.Value(fmt.Sprintf("w%d", j)))}
				d := Delta{Insert: e}
				if present[k] {
					d = Delta{Retract: e}
				}
				present[k] = !present[k]
				st, err := m.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				sum.BaseInserted += st.BaseInserted
				sum.BaseRetracted += st.BaseRetracted
				sum.DerivedAdded += st.DerivedAdded
				sum.DerivedRemoved += st.DerivedRemoved
				sum.Overdeleted += st.Overdeleted
				sum.Rederived += st.Rederived
				sum.Kept += st.Kept
				sum.SupportIncrements += st.SupportIncrements
				sum.SupportDecrements += st.SupportDecrements
			}
			checkAgainstRecompute(t, m)
			if sum != tc.want {
				t.Errorf("summed stats over the stream:\n got %+v\nwant %+v", sum, tc.want)
			}
		})
	}
}
