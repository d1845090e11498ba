package incr_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/incr"
	"repro/internal/serve"
)

// This file tests the runs an epoch carries (epoch.go): whatever chain
// of commits, reads and folds produced an epoch's sorted, rendered
// relation, it must equal, fact for fact and byte for byte, what an
// epoch with no predecessor — a fresh materialization of the surviving
// base — sorts and renders from scratch.

const (
	tcSrc  = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n"
	qtcSrc = tcSrc + "Adom(x) :- E(x,y).\nAdom(y) :- E(x,y).\nO(x,y) :- Adom(x), Adom(y), !T(x,y).\n"
)

// workloads: TC grows and shrinks with its input; QTC's O loses facts on
// an insert (negation); "mixed" adds a relation the program does not
// mention, holding facts of three arities.
var workloads = []struct {
	name  string
	prog  string
	mixed bool
	rels  []string
}{
	{"tc", tcSrc, false, []string{"E", "T", "nope"}},
	{"qtc", qtcSrc, false, []string{"E", "T", "Adom", "O"}},
	{"mixed", tcSrc, true, []string{"E", "T", "R"}},
}

// randomFact draws an edge over seven nodes, or, on the mixed workload,
// an R fact of arity one to three over the same nodes.
func randomFact(rng *rand.Rand, mixed bool) fact.Fact {
	v := func() fact.Value { return fact.Value(fmt.Sprintf("v%d", rng.Intn(7))) }
	if mixed && rng.Intn(3) == 0 {
		return fact.New("R", []fact.Value{v(), v(), v()}[:1+rng.Intn(3)]...)
	}
	return fact.New("E", v(), v())
}

// randomDelta draws one effective-or-not delta against cur and applies
// it to cur: a few inserts, a few retracts of present facts, never the
// same fact on both sides.
func randomDelta(rng *rand.Rand, mixed bool, cur *fact.Instance) incr.Delta {
	var d incr.Delta
	seen := map[string]bool{}
	for k := rng.Intn(4); k > 0; k-- {
		if f := randomFact(rng, mixed); !seen[f.Key()] {
			seen[f.Key()] = true
			d.Insert = append(d.Insert, f)
		}
	}
	if present := cur.Facts(); len(present) > 0 {
		for k := rng.Intn(3); k > 0; k-- {
			if f := present[rng.Intn(len(present))]; !seen[f.Key()] {
				seen[f.Key()] = true
				d.Retract = append(d.Retract, f)
			}
		}
	}
	for _, f := range d.Insert {
		cur.Add(f)
	}
	for _, f := range d.Retract {
		cur.Remove(f)
	}
	return d
}

func mustNew(t testing.TB, prog *datalog.Program, base *fact.Instance) *incr.Materialization {
	t.Helper()
	m, err := incr.New(prog, base, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encode(t testing.TB, v serve.View, req serve.Request) []byte {
	t.Helper()
	b, err := serve.ReadResponse(v, req).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameFacts(a, b []fact.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkEpoch compares a carried epoch with the parentless epoch of a
// fresh materialization of the same base: lists and wire bytes.
func checkEpoch(t *testing.T, what string, prog *datalog.Program, got *incr.Epoch, base *fact.Instance, rels []string) {
	t.Helper()
	want := mustNew(t, prog, base).Epoch()
	if got.Len() != want.Len() || got.BaseLen() != want.BaseLen() {
		t.Fatalf("%s: %d facts over %d base, want %d over %d", what, got.Len(), got.BaseLen(), want.Len(), want.BaseLen())
	}
	for _, rel := range rels {
		if !sameFacts(got.Rel(rel), want.Rel(rel)) {
			t.Fatalf("%s: Rel(%s)\n got %v\nwant %v", what, rel, got.Rel(rel), want.Rel(rel))
		}
		req := serve.Request{Op: "query", Rel: rel}
		if g, w := encode(t, got, req), encode(t, want, req); !bytes.Equal(g, w) {
			t.Fatalf("%s: query %s\n got %s\nwant %s", what, rel, g, w)
		}
	}
	if g, w := encode(t, got, serve.Request{Op: "facts"}), encode(t, want, serve.Request{Op: "facts"}); !bytes.Equal(g, w) {
		t.Fatalf("%s: facts\n got %s\nwant %s", what, g, w)
	}
}

// TestCarriedRunsDifferential: 300 seeded streams of one to eight
// applies per Epoch(), some batches inserting a fact and retracting it
// again before the commit. Along the way a stream reads the newest epoch
// (so the writer picks a built run up), one ten commits stale, a single
// relation, or nothing; at the end every epoch — most never read until
// then — is compared with its from-scratch twin, in random order.
func TestCarriedRunsDifferential(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		w := workloads[seed%len(workloads)]
		prog := datalog.MustParseProgram(w.prog)
		rng := rand.New(rand.NewSource(int64(seed)))
		cur := generate.RandomGraph(rng, "v", 7, rng.Intn(10))
		m := mustNew(t, prog, cur)
		type published struct {
			ep   *incr.Epoch
			base *fact.Instance
		}
		pubs := []published{{m.Epoch(), cur.Clone()}}
		check := func(i int) {
			checkEpoch(t, fmt.Sprintf("%s seed %d epoch %d of %d", w.name, seed, i, len(pubs)), prog, pubs[i].ep, pubs[i].base, w.rels)
		}
		for commit := 0; commit < 14; commit++ {
			for k := 1 + rng.Intn(8); k > 0; k-- {
				d := randomDelta(rng, w.mixed, cur)
				if _, err := m.Apply(d); err != nil {
					t.Fatal(err)
				}
				if f := randomFact(rng, w.mixed); k > 1 && rng.Intn(3) == 0 && !cur.Has(f) {
					// In and out again inside one batch: no net flow.
					if _, err := m.Apply(incr.Delta{Insert: []fact.Fact{f}}); err != nil {
						t.Fatal(err)
					}
					if _, err := m.Apply(incr.Delta{Retract: []fact.Fact{f}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			pubs = append(pubs, published{m.Epoch(), cur.Clone()})
			switch rng.Intn(5) {
			case 0:
				check(len(pubs) - 1)
			case 1:
				if len(pubs) > 10 {
					check(len(pubs) - 11)
				}
			case 2:
				pubs[len(pubs)-1].ep.Rel(w.rels[rng.Intn(len(w.rels))])
			}
		}
		for _, i := range rng.Perm(len(pubs)) {
			check(i)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("%s seed %d: %v", w.name, seed, err)
		}
	}
}

// deployment is one way a session reaches a materialization.
type deployment struct {
	name string
	h    serve.Handler
}

// deployments builds a single-node core, a replicated router and, where
// the plan allows it, a partitioned router over the same program and
// base.
func deployments(t *testing.T, prog *datalog.Program, base *fact.Instance) []deployment {
	t.Helper()
	opts := serve.Options{}
	core := serve.NewCore(mustNew(t, prog, base), opts)
	t.Cleanup(core.Close)
	ds := []deployment{{"core", core}}
	for _, place := range []cluster.PlacementKind{cluster.PlaceHash, cluster.PlaceComponent} {
		c, err := cluster.New(prog, base, cluster.Options{Shards: 3, Placement: place, Serve: opts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if place == cluster.PlaceComponent && !c.Plan().Partitioned {
			continue // demoted to replication: the hash arm covers it
		}
		ds = append(ds, deployment{string(place), cluster.NewRouter(c)})
	}
	return ds
}

// TestCarriedRunsThroughDeployments: one seeded session of writes and
// reads through a core, a replicated router and a partitioned router.
// Every query and facts line must be the bytes a fresh materialization
// of the base at that point answers with: on the routers that covers
// the k-way merge of the shards' carried runs.
func TestCarriedRunsThroughDeployments(t *testing.T) {
	seeds := 36
	if testing.Short() {
		seeds = 9
	}
	for seed := 0; seed < seeds; seed++ {
		w := workloads[seed%len(workloads)]
		prog := datalog.MustParseProgram(w.prog)
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		base := generate.RandomGraph(rng, "v", 7, rng.Intn(10))
		ds := deployments(t, prog, base)

		cur := base.Clone()
		var script [][]byte
		want := map[int][]byte{} // response line → expected bytes, reads only
		for step := 0; step < 40; step++ {
			if rng.Intn(3) > 0 {
				// One insert a request: a partitioned router refuses a delta
				// that inserts a fact and, by a later fact that joins two
				// components, migrates it (cluster.placeDelta, at the parent
				// commit too; not this file's subject).
				d := randomDelta(rng, w.mixed, cur)
				for _, f := range d.Insert {
					script = append(script, mustJSON(t, serve.Request{Op: "insert", Facts: []string{f.String()}}))
				}
				if len(d.Retract) > 0 {
					script = append(script, mustJSON(t, serve.Request{Op: "retract", Facts: fact.FactStrings(d.Retract)}))
				}
				continue
			}
			req := serve.Request{Op: "query", Rel: w.rels[rng.Intn(len(w.rels))]}
			if rng.Intn(4) == 0 {
				req = serve.Request{Op: "facts"}
			}
			want[len(script)] = encode(t, mustNew(t, prog, cur).Epoch(), req)
			script = append(script, mustJSON(t, req))
		}
		for _, d := range ds {
			got := pingPong(t, d.h, script)
			for i, g := range got {
				if !bytes.HasPrefix(g, []byte(`{"ok":true`)) {
					t.Fatalf("%s seed %d on %s, line %d: %s answered %s", w.name, seed, d.name, i, script[i], g)
				}
			}
			for i, wb := range want {
				if !bytes.Equal(got[i], wb) {
					t.Fatalf("%s seed %d on %s, line %d:\n got %s\nwant %s", w.name, seed, d.name, i, got[i], wb)
				}
			}
		}
	}
}

// pingPong runs one session a request at a time: the next line is sent
// only once the last one is answered, so a read sees exactly the writes
// before it (a pipelined read may also see later ones).
func pingPong(t *testing.T, h serve.Handler, lines [][]byte) [][]byte {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		err := h.Serve(reqR, respW)
		respW.Close()
		served <- err
	}()
	rd := bufio.NewReader(respR)
	got := make([][]byte, len(lines))
	for i, line := range lines {
		if _, err := reqW.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
		resp, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		got[i] = bytes.TrimRight(resp, "\n")
	}
	reqW.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	return got
}

func mustJSON(t testing.TB, req serve.Request) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func restoreCore(t testing.TB, path string) *serve.Core {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := incr.Restore(f, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core := serve.NewCore(m, serve.Options{})
	t.Cleanup(core.Close)
	return core
}

// TestCarriedRunsConcurrentReaders (run under -race): readers build runs
// on the four newest epochs while the writer keeps committing and
// picking up whatever they built. Every response must be the bytes of
// the serial oracle for that epoch.
func TestCarriedRunsConcurrentReaders(t *testing.T) {
	prog := datalog.MustParseProgram(tcSrc)
	cur := generate.Path("c", 12)
	m := mustNew(t, prog, cur)
	reqs := []serve.Request{{Op: "query", Rel: "T"}, {Op: "query", Rel: "E"}, {Op: "facts"}}

	var mu sync.Mutex
	eps := []*incr.Epoch{m.Epoch()}
	bases := []*fact.Instance{cur.Clone()}
	type seen struct {
		epoch, req int
		line       []byte
	}
	const readers, commits = 4, 150
	got := make([][]seen, readers)
	// done closes only after every reader has finished one read, so a
	// commit loop that outruns the scheduler cannot leave a reader idle.
	done := make(chan struct{})
	var wg, read sync.WaitGroup
	read.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			firstRead := sync.OnceFunc(read.Done)
			defer firstRead()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				mu.Lock()
				i := len(eps) - 1 - rng.Intn(min(4, len(eps)))
				ep := eps[i]
				mu.Unlock()
				q := rng.Intn(len(reqs))
				b, err := serve.ReadResponse(ep, reqs[q]).Encode()
				if err != nil {
					t.Error(err)
					return
				}
				got[r] = append(got[r], seen{i, q, b})
				firstRead()
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	for c := 0; c < commits; c++ {
		if _, err := m.Apply(randomDelta(rng, false, cur)); err != nil {
			t.Fatal(err)
		}
		ep, base := m.Epoch(), cur.Clone()
		mu.Lock()
		eps, bases = append(eps, ep), append(bases, base)
		mu.Unlock()
	}
	read.Wait()
	close(done)
	wg.Wait()

	oracle := map[[2]int][]byte{}
	for r, rs := range got {
		if len(rs) == 0 {
			t.Fatalf("reader %d got no read in", r)
		}
		for _, s := range rs {
			k := [2]int{s.epoch, s.req}
			if oracle[k] == nil {
				oracle[k] = encode(t, mustNew(t, prog, bases[s.epoch]).Epoch(), reqs[s.req])
			}
			if !bytes.Equal(s.line, oracle[k]) {
				t.Fatalf("epoch %d, %v:\n got %s\nwant %s", s.epoch, reqs[s.req], s.line, oracle[k])
			}
		}
	}
}

// coldQuery measures one commit of a fresh isolated edge followed by
// the first query T on the new epoch, over a chain of n edges whose T
// the previous epoch had read: its allocations, the bytes they take
// (MemStats.TotalAlloc) and the response line it answers with.
func coldQuery(t *testing.T, n int) (allocs, bytes float64, line, size int) {
	m := mustNew(t, datalog.MustParseProgram(tcSrc), generate.Path("c", n+1))
	req := serve.Request{Op: "query", Rel: "T"}
	i := 0
	round := func() {
		i++
		f := fact.New("E", fact.Value(fmt.Sprintf("p%d", i)), fact.Value(fmt.Sprintf("q%d", i)))
		if _, err := m.Apply(incr.Delta{Insert: []fact.Fact{f}}); err != nil {
			t.Fatal(err)
		}
		var memo serve.ReadMemo
		resp := memo.Respond(m.Epoch(), req)
		b, err := resp.Encode()
		if !resp.OK || err != nil {
			t.Fatal(resp.Err, err)
		}
		line = len(b)
	}
	allocs = testing.AllocsPerRun(20, round)
	return allocs, totalAlloc(20, round), line, len(m.Epoch().Rel("T"))
}

// totalAlloc returns the bytes one call of f allocates, over runs calls.
func totalAlloc(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestColdQueryAllocsFollowTheDelta is the counter that gates the
// carried runs (same input, same number): a cold query T after a
// one-edge commit allocates for the delta and a handful of buffers, not
// once per fact of T — less than twice as much on a T sixteen times
// the size.
func TestColdQueryAllocsFollowTheDelta(t *testing.T) {
	small, _, _, nSmall := coldQuery(t, 64)
	large, _, _, nLarge := coldQuery(t, 256)
	t.Logf("cold query T after a one-edge commit: %.0f allocs at |T| = %d, %.0f at |T| = %d", small, nSmall, large, nLarge)
	if nLarge < 15*nSmall {
		t.Fatalf("|T| grew %d → %d, want about 16x", nSmall, nLarge)
	}
	if large >= 2*small {
		t.Errorf("allocations grew %.0f → %.0f (≥ 2x) while |T| grew %d → %d", small, large, nSmall, nLarge)
	}
	if small >= float64(nSmall) {
		t.Errorf("%.0f allocations for a cold read of %d facts: the run is being rendered again", small, nSmall)
	}
}

// TestColdQueryBytesFollowTheLine is the counter beside it, in bytes: a
// one-edge commit and the first query T allocate at most twice the
// response line — the line itself, the chunks the edge reached and
// the commit — on a single node at chain-64 and chain-256, and through
// a 3-shard partitioned router, whose gather merges the shards' chunks
// into the line. A run copied, rendered and marshaled whole, as before
// chunks, read 150,434 B for a 27 KB line at chain-64 (5.5x).
func TestColdQueryBytesFollowTheLine(t *testing.T) {
	for _, n := range []int{64, 256} {
		_, bytes, line, size := coldQuery(t, n)
		t.Logf("chain-%d: %.0f B for a %d B line (%.2fx), |T| = %d", n, bytes, line, bytes/float64(line), size)
		if bytes > 2*float64(line) {
			t.Errorf("chain-%d: a one-edge commit and a cold query T allocate %.0f B for a %d B line, want at most 2x", n, bytes, line)
		}
	}

	c, err := cluster.New(datalog.MustParseProgram(tcSrc), generate.Path("c", 65), cluster.Options{Shards: 3, Placement: cluster.PlaceComponent})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Plan().Partitioned {
		t.Fatalf("plan %+v is not partitioned", c.Plan())
	}
	req, i, line := serve.Request{Op: "query", Rel: "T"}, 0, 0
	round := func() {
		i++
		write := serve.Request{Op: "insert", Facts: []string{fmt.Sprintf("E(p%d,q%d)", i, i)}}
		resp, g := c.SubmitWrite(write)
		if !resp.OK {
			t.Fatal(resp.Err)
		}
		b, err := c.Read(-1, req, g).Encode()
		if err != nil {
			t.Fatal(err)
		}
		line = len(b)
	}
	round()
	bytes := totalAlloc(20, round)
	t.Logf("partitioned, 3 shards: %.0f B for a %d B gathered line (%.2fx)", bytes, line, bytes/float64(line))
	if bytes > 2*float64(line) {
		t.Errorf("a one-edge write and a cold gathered query T allocate %.0f B for a %d B line, want at most 2x", bytes, line)
	}
}

// awkward is a value built from pieces JSON writes escaped: quote and
// backslash, the HTML-sensitive '<' '>' '&', control bytes, U+2028 and
// U+2029, multi-byte UTF-8 and invalid UTF-8, among plain letters.
func awkward(rng *rand.Rand) string {
	pieces := []string{"a", "b", "7", " ", `"`, `\`, "<", ">", "&", "\x01", "\n", "\t", "\x1f", "\x7f", "\u2028", "\u2029", "é", "日本", "\xff", "\xc3"}
	var v string
	for k := 1 + rng.Intn(4); k > 0; k-- {
		v += pieces[rng.Intn(len(pieces))]
	}
	return v
}

// quoted writes v in fact syntax, always quoted: the parser reads any
// byte between quotes but NUL, '"' and '\\' escaped.
func quoted(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		if v[i] == '"' || v[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(v[i])
	}
	b.WriteByte('"')
	return b.String()
}

// TestFactsLineIsJSONMarshal is the byte-exactness property of the wire
// elements: every query and facts line a core and a partitioned router
// write from their chunks, with and without "epoch":true, is the bytes
// json.Marshal writes for the same Response with the facts as a list of
// strings. The facts hold awkward values and reach the server as fact
// text through fact.ParseFacts; requests go in as Go values, so even
// invalid UTF-8 arrives unreplaced.
func TestFactsLineIsJSONMarshal(t *testing.T) {
	prog := datalog.MustParseProgram(tcSrc)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		core := serve.NewCore(mustNew(t, prog, fact.NewInstance()), serve.Options{})
		t.Cleanup(core.Close)
		c, err := cluster.New(prog, nil, cluster.Options{Shards: 3, Placement: cluster.PlaceComponent})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		cur := fact.NewInstance()
		var text []string
		for step := 0; step < 30; step++ {
			req := serve.Request{Op: "insert"}
			if present := fact.FactStrings(cur.Facts()); len(present) > 0 && rng.Intn(4) == 0 {
				req = serve.Request{Op: "retract", Facts: []string{quotedFact(t, present[rng.Intn(len(present))])}}
			} else {
				req.Facts = []string{fmt.Sprintf("E(%s,%s)", quoted(awkward(rng)), quoted(awkward(rng)))}
			}
			fs, err := fact.ParseFacts(req.Facts)
			if err != nil {
				t.Fatalf("%q: %v", req.Facts, err)
			}
			if req.Op == "insert" {
				cur.Add(fs[0])
			} else {
				cur.Remove(fs[0])
			}
			if resp := core.Do(req); !resp.OK {
				t.Fatalf("core %v: %s", req, resp.Err)
			}
			resp, g := c.SubmitWrite(req)
			if !resp.OK {
				t.Fatalf("router %v: %s", req, resp.Err)
			}
			text = text[:0]
			oracle := mustNew(t, prog, cur).Epoch()
			for _, read := range []serve.Request{{Op: "query", Rel: "E"}, {Op: "query", Rel: "T"}, {Op: "query", Rel: "nope"}, {Op: "facts"}} {
				var want []fact.Fact
				if read.Op == "facts" {
					want = append(oracle.Rel("E"), oracle.Rel("T")...)
				} else {
					want = oracle.Rel(read.Rel)
				}
				text = fact.FactStrings(want)
				for _, echo := range []bool{false, true} {
					read.Epoch = echo
					for _, d := range []struct {
						name string
						resp serve.Response
					}{{"core", core.Do(read)}, {"router", c.Read(-1, read, g)}} {
						got, err := d.resp.Encode()
						if err != nil {
							t.Fatal(err)
						}
						n := len(text)
						wantResp := serve.Response{OK: true, Count: &n, Facts: text}
						if echo {
							wantResp.Epoch = d.resp.Epoch
						}
						w, err := json.Marshal(wantResp)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, w) {
							t.Fatalf("seed %d step %d, %s %+v:\n got %s\nwant %s", seed, step, d.name, read, got, w)
						}
					}
				}
			}
		}
	}
}

// quotedFact rewrites a printed E fact with both values quoted, so that
// a value Fact.String prints bare parses back as itself.
func quotedFact(t *testing.T, s string) string {
	f, err := fact.ParseFact(s)
	if err != nil {
		t.Fatalf("%q: %v", s, err)
	}
	return fmt.Sprintf("E(%s,%s)", quoted(string(f.Arg(0))), quoted(string(f.Arg(1))))
}

// TestRestoreAnswersLikeTheWriter: a core that has carried its runs
// through commits and reads snapshots itself; a core restored from the
// file has no run to extend and sorts from the index, and must answer
// every read in the same bytes.
func TestRestoreAnswersLikeTheWriter(t *testing.T) {
	for _, w := range workloads {
		prog := datalog.MustParseProgram(w.prog)
		rng := rand.New(rand.NewSource(7))
		cur := generate.RandomGraph(rng, "v", 7, 8)
		core := serve.NewCore(mustNew(t, prog, cur), serve.Options{})
		defer core.Close()
		reads := []serve.Request{{Op: "facts"}, {Op: "stats"}}
		for _, rel := range w.rels {
			reads = append(reads, serve.Request{Op: "query", Rel: rel}, serve.Request{Op: "query", Rel: rel, Epoch: true})
		}
		for step := 0; step < 30; step++ {
			d := randomDelta(rng, w.mixed, cur)
			if resp := core.Do(serve.Request{Op: "apply", Insert: fact.FactStrings(d.Insert), Retract: fact.FactStrings(d.Retract)}); !resp.OK {
				t.Fatal(resp.Err)
			}
			core.Do(reads[rng.Intn(len(reads))])
		}
		path := filepath.Join(t.TempDir(), "state.snap")
		if resp := core.Do(serve.Request{Op: "snapshot", Path: path}); !resp.OK {
			t.Fatal(resp.Err)
		}
		restored := restoreCore(t, path)
		for _, req := range reads {
			g, err := restored.Do(req).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if wb, _ := core.Do(req).Encode(); !bytes.Equal(g, wb) {
				t.Errorf("%s %v:\nrestored %s\n  writer %s", w.name, req, g, wb)
			}
		}
	}
}
