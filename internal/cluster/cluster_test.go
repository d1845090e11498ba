package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/serve"
)

// tcProgram is the paper's canonical monotone query: transitive
// closure. FragDatalog, connected rules — the strongest case, where
// component placement partitions and reads are coordination-free.
const tcProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
`

// negProgram adds stratified negation (the serve test program): the
// classifier must fence reads and demote component placement.
const negProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
OnLoop(x) :- T(x,x).
Off(x) :- E(x,y), !T(y,x).
`

func newTestCluster(t testing.TB, program, input string, opts Options) *Cluster {
	t.Helper()
	inst, err := fact.ParseInstance(input)
	if err != nil {
		t.Fatalf("parse input: %v", err)
	}
	c, err := New(datalog.MustParseProgram(program), inst, opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// routerSession runs request lines through one router connection and
// returns one response line per request line.
func routerSession(t testing.TB, r *Router, lines ...string) []string {
	t.Helper()
	var out bytes.Buffer
	if err := r.Serve(strings.NewReader(strings.Join(lines, "\n")+"\n"), &out); err != nil {
		t.Fatalf("router serve: %v", err)
	}
	got := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(got) != len(lines) {
		t.Fatalf("got %d responses for %d requests:\n%s", len(got), len(lines), out.String())
	}
	return got
}

func decodeResp(t testing.TB, line string) serve.Response {
	t.Helper()
	var r serve.Response
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("bad response line %q: %v", line, err)
	}
	return r
}

// encodeResp renders a response in wire-byte form for golden compares.
func encodeResp(t testing.TB, resp serve.Response) string {
	t.Helper()
	b, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouterBasicReplicated byte-compares a routed session against the
// exact lines a serial single-node calmd emits for the same session:
// replicated mode is wire-indistinguishable from one daemon.
func TestRouterBasicReplicated(t *testing.T) {
	c := newTestCluster(t, tcProgram, "E(a,b)\n", Options{Shards: 3})
	r := NewRouter(c)
	got := routerSession(t, r,
		`{"op":"ping"}`,
		`{"op":"insert","facts":["E(b,c)"]}`,
		`{"op":"query","rel":"T"}`,
		`{"op":"facts"}`,
		`{"op":"stats"}`,
		`{"op":"retract","facts":["E(a,b)"]}`,
		`{"op":"query","rel":"T"}`,
	)
	want := []string{
		`{"ok":true}`,
		`{"ok":true,"seq":2,"apply":{"inserted":1,"retracted":0,"added":2,"removed":0}}`,
		`{"ok":true,"count":3,"facts":["T(a,b)","T(a,c)","T(b,c)"]}`,
		`{"ok":true,"count":5,"facts":["E(a,b)","E(b,c)","T(a,b)","T(a,c)","T(b,c)"]}`,
		`{"ok":true,"stats":{"seq":2,"facts":5,"base":2,"derived":3}}`,
		`{"ok":true,"seq":3,"apply":{"inserted":0,"retracted":1,"added":0,"removed":2}}`,
		`{"ok":true,"count":1,"facts":["T(b,c)"]}`,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestReadNegativeAffinity: a negative affinity means "no preference",
// which a replicated cluster answers from shard 0 instead of indexing
// its shard list at a negative position.
func TestReadNegativeAffinity(t *testing.T) {
	c := newTestCluster(t, tcProgram, "E(a,b)\nE(b,c)\n", Options{Shards: 3, Placement: PlaceHash})
	if c.Plan().Partitioned {
		t.Fatalf("hash placement should replicate: %+v", c.Plan())
	}
	for _, aff := range []int{-1, -4} {
		got := encodeResp(t, c.Read(aff, serve.Request{Op: "query", Rel: "T"}, 0))
		want := `{"ok":true,"count":3,"facts":["T(a,b)","T(a,c)","T(b,c)"]}`
		if got != want {
			t.Errorf("Read(%d, query T) = %s, want %s", aff, got, want)
		}
	}
}

func TestRouterBasicPartitioned(t *testing.T) {
	c := newTestCluster(t, tcProgram, "E(a,b)\nE(x,y)\n", Options{Shards: 4, Placement: PlaceComponent})
	if !c.Plan().Partitioned {
		t.Fatalf("tc program with component placement should partition: %+v", c.Plan())
	}
	r := NewRouter(c)
	got := routerSession(t, r,
		`{"op":"insert","facts":["E(b,c)"]}`,
		`{"op":"query","rel":"T"}`,
		`{"op":"facts"}`,
		`{"op":"stats"}`,
	)
	resp := decodeResp(t, got[0])
	if !resp.OK || resp.Seq == nil || *resp.Seq != 1 {
		t.Fatalf("partitioned write should ack with global log position 1: %s", got[0])
	}
	if resp.Apply == nil || resp.Apply.Inserted != 1 {
		t.Fatalf("partitioned write should aggregate apply stats: %s", got[0])
	}
	wantT := `{"ok":true,"count":4,"facts":["T(a,b)","T(a,c)","T(b,c)","T(x,y)"]}`
	if got[1] != wantT {
		t.Errorf("gathered T:\n got %s\nwant %s", got[1], wantT)
	}
	stats := decodeResp(t, got[3])
	if stats.Stats == nil || stats.Stats.Base != 3 || stats.Stats.Facts != 7 {
		t.Errorf("gathered stats = %s, want base 3, facts 7", got[3])
	}
	if stats.Stats.Seq != 1 {
		t.Errorf("gathered stats seq = %d, want log position 1", stats.Stats.Seq)
	}
}

// TestPartitionedMigration pins the bridge case: an insert that joins
// two components resident on different shards migrates the absorbed
// component, after which the gathered closure equals the single-node
// answer and every base fact is still homed on exactly one shard.
func TestPartitionedMigration(t *testing.T) {
	c := newTestCluster(t, tcProgram, "", Options{Shards: 2, Placement: PlaceComponent, Reg: obs.NewRegistry()})
	r := NewRouter(c)

	// A component's home is the hash of its minimum value, so two
	// chains a1→a2 and b1→b2 land on different shards iff their min
	// nodes hash apart. Search namespaces for such a pair.
	var a, b string
	for i := 0; i < 64 && a == ""; i++ {
		x, y := fmt.Sprintf("m%da", i), fmt.Sprintf("m%db", i)
		if hashShard(x+"1", 2) != hashShard(y+"1", 2) {
			a, b = x, y
		}
	}
	if a == "" {
		t.Fatal("no namespace pair hashing to different shards")
	}

	got := routerSession(t, r,
		fmt.Sprintf(`{"op":"insert","facts":["E(%s1,%s2)","E(%s1,%s2)"]}`, a, a, b, b),
		fmt.Sprintf(`{"op":"insert","facts":["E(%s2,%s1)"]}`, a, b), // bridge: merges the components
		`{"op":"query","rel":"T"}`,
	)
	for i := 0; i < 2; i++ {
		if !decodeResp(t, got[i]).OK {
			t.Fatalf("write %d failed: %s", i, got[i])
		}
	}
	// Closure of the chain a1→a2→b1→b2, rendered through the fact
	// package's own ordering so the golden matches the wire sort.
	closure := []fact.Fact{
		fact.MustParseFact(fmt.Sprintf("T(%s1,%s2)", a, a)),
		fact.MustParseFact(fmt.Sprintf("T(%s1,%s1)", a, b)),
		fact.MustParseFact(fmt.Sprintf("T(%s1,%s2)", a, b)),
		fact.MustParseFact(fmt.Sprintf("T(%s2,%s1)", a, b)),
		fact.MustParseFact(fmt.Sprintf("T(%s2,%s2)", a, b)),
		fact.MustParseFact(fmt.Sprintf("T(%s1,%s2)", b, b)),
	}
	fact.SortFacts(closure)
	strs := fact.FactStrings(closure)
	n := len(strs)
	want := encodeResp(t, serve.Response{OK: true, Count: &n, Facts: strs})
	if got[2] != want {
		t.Errorf("post-migration gather:\n got %s\nwant %s", got[2], want)
	}
	if got := c.coordMigrations.Value(); got != 1 {
		t.Errorf("migrations counter = %d, want 1", got)
	}
	// Single homing: base facts across shards sum to the base size.
	c.Quiesce()
	total := 0
	for j := 0; j < c.ShardCount(); j++ {
		total += c.ShardCore(j).CurrentEpoch().BaseLen()
	}
	if total != 3 {
		t.Errorf("base facts across shards = %d, want 3 (single-homed)", total)
	}
}

func TestRouterValidation(t *testing.T) {
	c := newTestCluster(t, tcProgram, "", Options{Shards: 2, Placement: PlaceComponent})
	r := NewRouter(c)
	got := routerSession(t, r,
		`{"op":"insert","facts":["T(a,b)"]}`,
		`{"op":"insert","facts":["E(a)"]}`,
		`{"op":"apply","insert":["E(a,b)"],"retract":["E(a,b)"]}`,
		`{"op":"snapshot","path":"x"}`,
		`{"op":"frobnicate"}`,
		`not json`,
		`{"op":"query"}`,
		`{"op":"stats"}`,
	)
	wantErr := []string{
		"derived relation",
		"arity",
		"both insert and retract",
		"per-shard operation",
		`unknown op "frobnicate"`,
		"bad request",
		"query needs a rel",
	}
	for i, frag := range wantErr {
		resp := decodeResp(t, got[i])
		if resp.OK || !strings.Contains(resp.Err, frag) {
			t.Errorf("line %d = %s, want error containing %q", i, got[i], frag)
		}
	}
	// Rejected writes left no trace: nothing reached the log or the
	// shards.
	if c.logLen() != 0 {
		t.Errorf("rejected writes reached the log: len %d", c.logLen())
	}
	stats := decodeResp(t, got[7])
	if stats.Stats == nil || stats.Stats.Facts != 0 {
		t.Errorf("state not clean after rejected writes: %s", got[7])
	}
}

func TestClusterOp(t *testing.T) {
	c := newTestCluster(t, tcProgram, "", Options{Shards: 3, Placement: PlaceComponent})
	r := NewRouter(c)
	got := routerSession(t, r,
		`{"op":"insert","facts":["E(a,b)"]}`,
		`{"op":"cluster"}`,
	)
	cb := decodeResp(t, got[1]).Cluster
	if cb == nil {
		t.Fatalf("cluster op returned no body: %s", got[1])
	}
	if cb.Shards != 3 || cb.Placement != "component" || cb.Plan != "coordination-free" ||
		cb.Fragment != string(datalog.FragDatalog) || cb.Log != 1 || cb.Affinity != -1 {
		t.Errorf("cluster body = %s", got[1])
	}
	if len(cb.Watermarks) != 3 {
		t.Fatalf("watermarks = %v", cb.Watermarks)
	}
	c.Quiesce()
	_, hs := c.Health()
	for j, h := range hs {
		if h.Watermark != 1 {
			t.Errorf("shard %d watermark after quiesce = %d, want 1", j, h.Watermark)
		}
	}
}

func TestPlanSelection(t *testing.T) {
	const free, fenced = "coordination-free", "fenced"
	cases := []struct {
		program     string
		place       PlacementKind
		partitioned bool
		coord       string
	}{
		{tcProgram, PlaceHash, false, free},
		{tcProgram, PlaceComponent, true, free},
		{negProgram, PlaceHash, false, fenced},
		{negProgram, PlaceComponent, false, fenced},
		// Disconnected monotone rules: the cross product joins values
		// across components, so partitioning is demoted but reads stay
		// coordination-free (the program is still monotone).
		{"P(x,y) :- A(x), B(y).", PlaceComponent, false, free},
		// The two probe programs of the membership table: each is in
		// con-Datalog¬ but licensed only M_distinct or M_disjoint, which
		// the log does not check, so both stay fenced and replicated.
		{spConProbe, PlaceComponent, false, fenced},
		{spConProbe, PlaceHash, false, fenced},
		{tcConProbe, PlaceComponent, false, fenced},
		{tcConProbe, PlaceHash, false, fenced},
	}
	theorem := regexp.MustCompile(`\((Prop|Thm|Lemma|Example) [0-9.]+, F2\.[0-9]+\)`)
	for i, tc := range cases {
		plan := planFor(datalog.MustParseProgram(tc.program), tc.place)
		if plan.Partitioned != tc.partitioned || plan.Coordination != tc.coord {
			t.Errorf("case %d: plan = %+v, want partitioned=%v coord=%s", i, plan, tc.partitioned, tc.coord)
		}
		if !theorem.MatchString(plan.Reason) {
			t.Errorf("case %d: reason %q names no theorem", i, plan.Reason)
		}
	}
}

// The probe programs of Figure 2's overlap: the first is in SP-Datalog
// and in con-Datalog¬, the second in con-Datalog¬ but not SP-Datalog.
const (
	spConProbe = `O(x,y) :- E(x,y), !E(y,x).`
	tcConProbe = tcProgram + `O(x,y) :- T(x,y), !T(y,x).`
)

// TestReadYourWrites hammers the own-write fence in both modes: on one
// connection every read issued after a write must observe it, even
// though the affinity shard is usually not the write's home and the
// pumps apply asynchronously. In component mode the chain workload
// also forces a component merge on every write — the fence must hold
// across migrations too.
func TestReadYourWrites(t *testing.T) {
	for _, place := range []PlacementKind{PlaceHash, PlaceComponent} {
		t.Run(string(place), func(t *testing.T) {
			c := newTestCluster(t, tcProgram, "", Options{Shards: 4, Placement: place})
			r := NewRouter(c)
			var lines []string
			for i := 0; i < 40; i++ {
				lines = append(lines,
					fmt.Sprintf(`{"op":"insert","facts":["E(ryw%d,ryw%d)"]}`, i, i+1),
					`{"op":"query","rel":"E"}`)
			}
			got := routerSession(t, r, lines...)
			for i := 0; i < 40; i++ {
				read := decodeResp(t, got[2*i+1])
				if !read.OK || read.Count == nil || *read.Count != i+1 {
					t.Fatalf("read after write %d saw %s, want count %d", i, got[2*i+1], i+1)
				}
			}
		})
	}
}

func TestCrashRestartBasics(t *testing.T) {
	c := newTestCluster(t, tcProgram, "E(a,b)\n", Options{Shards: 2, Reg: obs.NewRegistry()})
	r := NewRouter(c)
	routerSession(t, r, `{"op":"insert","facts":["E(b,c)"]}`)
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0); err == nil {
		t.Error("double crash should error")
	}
	// Reads route around the down shard. The write still logs; its ack
	// may be lost if shard 0 was its home (at-least-once), so only the
	// read responses are asserted.
	got := routerSession(t, r,
		`{"op":"query","rel":"T"}`,
		`{"op":"insert","facts":["E(c,d)"]}`,
		`{"op":"query","rel":"E"}`,
	)
	if q := decodeResp(t, got[0]); !q.OK || *q.Count != 3 {
		t.Fatalf("read with shard 0 down: %s", got[0])
	}
	if q := decodeResp(t, got[2]); !q.OK || *q.Count != 3 {
		t.Fatalf("read after write with shard 0 down: %s", got[2])
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err == nil {
		t.Error("double restart should error")
	}
	c.Quiesce()
	// The recovered shard replayed the full log: both shards hold the
	// identical fact set.
	e0 := decodeResp(t, encodeResp(t, c.ShardCore(0).Do(serve.Request{Op: "facts"}))).Facts
	e1 := decodeResp(t, encodeResp(t, c.ShardCore(1).Do(serve.Request{Op: "facts"}))).Facts
	if strings.Join(e0, ";") != strings.Join(e1, ";") {
		t.Fatalf("shards diverge after recovery:\ns0: %v\ns1: %v", e0, e1)
	}
	if len(e0) != 9 { // chain a→b→c→d: 3 base edges + 6 closure facts
		t.Errorf("recovered state has %d facts, want 9: %v", len(e0), e0)
	}
	if c.crashes.Value() != 1 || c.recoveries.Value() != 1 {
		t.Errorf("crash/recovery counters = %d/%d, want 1/1", c.crashes.Value(), c.recoveries.Value())
	}
}
