package cluster

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/serve"
)

// This file tests the one request loop (serve.Session) through every
// backend it has: each table below runs against a single-node Core, a
// replicated Router and a partitioned Router, built over the same
// program and input, and — wherever the protocol promises it — demands
// the same bytes from all three.

// backend is one deployment behind serve.Handler.
type backend struct {
	name string
	h    serve.Handler
	c    *Cluster // nil for the single node
}

// sessionInput is a chain plus a second component, so the partitioned
// deployment has something on more than one shard.
var sessionInput = chainFacts(6) + "E(x,y)\n"

func backends(t *testing.T, opts serve.Options) []backend {
	return backendsOver(t, sessionInput, opts)
}

func backendsOver(t *testing.T, input string, opts serve.Options) []backend {
	t.Helper()
	inst, err := fact.ParseInstance(input)
	if err != nil {
		t.Fatal(err)
	}
	m, err := incr.New(datalog.MustParseProgram(tcProgram), inst, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core := serve.NewCore(m, opts)
	t.Cleanup(core.Close)
	repl := newTestCluster(t, tcProgram, input, Options{Shards: 3, Serve: opts})
	part := newTestCluster(t, tcProgram, input, Options{Shards: 3, Placement: PlaceComponent, Serve: opts})
	if repl.Plan().Partitioned || !part.Plan().Partitioned {
		t.Fatalf("plans: replicated %+v, partitioned %+v", repl.Plan(), part.Plan())
	}
	return []backend{
		{"core", core, nil},
		{"replicated", NewRouter(repl), repl},
		{"partitioned", NewRouter(part), part},
	}
}

// serveAll runs one whole session and returns its response lines.
func serveAll(h serve.Handler, input string) ([]string, error) {
	var out bytes.Buffer
	err := h.Serve(strings.NewReader(input), &out)
	if out.Len() == 0 {
		return nil, err
	}
	return strings.Split(strings.TrimRight(out.String(), "\n"), "\n"), err
}

// TestSessionFraming: blank lines are skipped, a line that is not JSON
// and an op nobody serves are answered and the session goes on, and a
// last request cut off by EOF is still answered — in the same bytes by
// every backend.
func TestSessionFraming(t *testing.T) {
	input := "\n" +
		`{"op":"ping"}` + "\n\n\n" +
		`not json` + "\n" +
		`{"op":"frobnicate"}` + "\n" +
		`{"op":42}` + "\n" +
		`{"op":"query"}` + "\n" +
		`{"op":"query","rel":"T","epoch":true}` + "\n" +
		`{"op":"stats"}` // no newline: EOF mid-request
	want := []string{
		`{"ok":true}`,
		`{"ok":false,"error":"bad request: invalid character 'o' in literal null (expecting 'u')"}`,
		`{"ok":false,"error":"unknown op \"frobnicate\""}`,
		`{"ok":false,"error":"bad request: json: cannot unmarshal number into Go struct field Request.op of type string"}`,
		`{"ok":false,"error":"query needs a rel"}`,
	}
	var first []string
	for _, b := range backends(t, serve.Options{}) {
		got, err := serveAll(b.h, input)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if len(got) != len(want)+2 {
			t.Fatalf("%s: %d responses, want %d:\n%s", b.name, len(got), len(want)+2, strings.Join(got, "\n"))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s line %d:\n got %s\nwant %s", b.name, i, got[i], want[i])
			}
		}
		// The two reads: the three deployments hold the same facts. The
		// epoch echo and stats seq count applies on a node (loading the
		// input is apply 1) and log entries behind a partitioned router
		// (none yet), so those two are compared per deployment kind.
		if b.c == nil || !b.c.Plan().Partitioned {
			if first == nil {
				first = got
			}
			if got[5] != first[5] || got[6] != first[6] {
				t.Errorf("%s reads differ from the core's:\n%s\n%s", b.name, got[5], got[6])
			}
		}
		q := decodeResp(t, got[5])
		if !q.OK || q.Count == nil || *q.Count != 22 || q.Epoch == nil {
			t.Errorf("%s: query T = %s", b.name, got[5])
		}
		st := decodeResp(t, got[6])
		if st.Stats == nil || st.Stats.Facts != 29 || st.Stats.Base != 7 {
			t.Errorf("%s: stats = %s", b.name, got[6])
		}
	}
}

// TestSessionLineTooLong: a line over the 16 MiB bound is not a clean
// shutdown. What was answered stays answered, the client gets one
// final read: error, and Serve reports the failure.
func TestSessionLineTooLong(t *testing.T) {
	input := `{"op":"ping"}` + "\n" + strings.Repeat("x", 16*1024*1024+1) + "\n" + `{"op":"ping"}` + "\n"
	want := []string{`{"ok":true}`, `{"ok":false,"error":"read: bufio.Scanner: token too long"}`}
	for _, b := range backends(t, serve.Options{}) {
		got, err := serveAll(b.h, input)
		if err == nil || !strings.Contains(err.Error(), "token too long") {
			t.Errorf("%s: Serve error = %v, want token too long", b.name, err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n got %q\nwant %q", b.name, got, want)
		}
	}
}

// TestSessionPipelinedOrder pipelines n insert/query pairs down one
// connection, all available to the reader at once, at the narrowest
// window and the default one. Responses come back in request order,
// and the query behind each insert sees it and every earlier one
// (and, group commit permitting, later ones): read-your-writes holds
// however deep the pipeline runs.
func TestSessionPipelinedOrder(t *testing.T) {
	const n = 100
	var in strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, `{"op":"insert","facts":["E(p%d,q%d)"]}`+"\n"+`{"op":"query","rel":"E"}`+"\n", i, i)
	}
	for _, window := range []int{1, 64} {
		for _, b := range backends(t, serve.Options{Pipeline: window}) {
			got, err := serveAll(b.h, in.String())
			if err != nil {
				t.Fatalf("%s window %d: %v", b.name, window, err)
			}
			if len(got) != 2*n {
				t.Fatalf("%s window %d: %d responses, want %d", b.name, window, len(got), 2*n)
			}
			for i := 0; i < n; i++ {
				w, q := decodeResp(t, got[2*i]), decodeResp(t, got[2*i+1])
				if !w.OK || w.Apply == nil || w.Apply.Inserted != 1 {
					t.Fatalf("%s window %d: response %d is not insert %d's ack: %s", b.name, window, 2*i, i, got[2*i])
				}
				if q.Count == nil || *q.Count < 7+i+1 || !strings.Contains(got[2*i+1], fmt.Sprintf(`"E(p%d,q%d)"`, i, i)) {
					t.Fatalf("%s window %d: query %d does not see the %d inserts before it: %s", b.name, window, i, i+1, got[2*i+1])
				}
			}
		}
	}
}

// TestSessionWindow stalls the client: nobody reads the responses, and
// each (the closure of a 40-chain) is too large for the session's write
// buffer, so the responder blocks on the first. The session must go on
// accepting requests until its window is full — Pipeline requests read
// and unanswered, the one whose response is being written among them —
// and then stop. A router that ignored Options.Pipeline would stop at
// its first unflushed response.
func TestSessionWindow(t *testing.T) {
	line := []byte(`{"op":"query","rel":"T"}` + "\n")
	for _, window := range []int{1, 64} {
		for _, b := range backendsOver(t, chainFacts(40)+"E(x,y)\n", serve.Options{Pipeline: window}) {
			reqR, reqW := io.Pipe()
			respR, respW := io.Pipe()
			done := make(chan error, 1)
			go func() {
				err := b.h.Serve(reqR, respW)
				respW.Close()
				done <- err
			}()
			// io.Pipe hands the scanner one Write per Read, so a Write
			// returning means the session consumed that line.
			var accepted atomic.Int64
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for i := 0; i < window+3; i++ {
					if _, err := reqW.Write(line); err != nil {
						return
					}
					accepted.Add(1)
				}
			}()
			full := int64(window)
			deadline := time.Now().Add(10 * time.Second)
			for accepted.Load() < full {
				if time.Now().After(deadline) {
					t.Fatalf("%s window %d: a stalled client got only %d requests accepted, want %d", b.name, window, accepted.Load(), full)
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // the one wait that is for something not to happen
			if got := accepted.Load(); got != full {
				t.Errorf("%s window %d: %d requests accepted from a stalled client, want the window to hold it at %d", b.name, window, got, full)
			}
			// The client wakes up: everything drains, in full.
			resps := make(chan int, 1)
			go func() {
				out, _ := io.ReadAll(respR)
				resps <- bytes.Count(out, []byte("\n"))
			}()
			<-fed
			reqW.Close()
			if err := <-done; err != nil {
				t.Errorf("%s window %d: %v", b.name, window, err)
			}
			if got := <-resps; got != window+3 {
				t.Errorf("%s window %d: %d responses, want %d", b.name, window, got, window+3)
			}
		}
	}
}

// TestRejectedWritesAnswerAlike: a write a single node refuses is
// refused by the router in the same bytes, before it reaches the log,
// and changes nothing anywhere.
func TestRejectedWritesAnswerAlike(t *testing.T) {
	rows := []struct{ name, line, want string }{
		{"idb relation", `{"op":"insert","facts":["T(a,b)"]}`,
			`{"ok":false,"error":"incr: T(a,b) is over derived relation T; deltas must change base relations only"}`},
		{"arity mismatch", `{"op":"insert","facts":["E(a)"]}`,
			`{"ok":false,"error":"incr: E(a) has arity 1, program uses E with arity 2"}`},
		{"NUL byte", `{"op":"retract","facts":["E(a\u0000,b)"]}`,
			`{"ok":false,"error":"bad fact: fact: unexpected character '\\x00' at offset 3"}`},
		{"both sides", `{"op":"apply","insert":["E(m,n)"],"retract":["E(m,n)"]}`,
			`{"ok":false,"error":"incr: E(m,n) appears in both insert and retract of one delta"}`},
		{"unparsable fact", `{"op":"insert","facts":["E(a"]}`, ""},
		{"unparsable retract", `{"op":"apply","insert":["E(a,b)"],"retract":["E(("]}`, ""},
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, r.line)
	}
	input := `{"op":"stats"}` + "\n" + strings.Join(lines, "\n") + "\n" + `{"op":"stats"}` + "\n"
	var first []string
	for _, b := range backends(t, serve.Options{}) {
		got, err := serveAll(b.h, input)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if len(got) != len(rows)+2 {
			t.Fatalf("%s: %d responses, want %d", b.name, len(got), len(rows)+2)
		}
		if first == nil {
			first = got
		}
		for i, r := range rows {
			resp := got[i+1]
			if resp != first[i+1] {
				t.Errorf("%s, %s: answers\n  %s\nthe core answers\n  %s", b.name, r.name, resp, first[i+1])
			}
			if r.want != "" && resp != r.want {
				t.Errorf("%s, %s:\n got %s\nwant %s", b.name, r.name, resp, r.want)
			}
			if r.want == "" && !strings.HasPrefix(resp, `{"ok":false,"error":"bad fact: `) {
				t.Errorf("%s, %s: %s is not a bad fact refusal", b.name, r.name, resp)
			}
		}
		if got[0] != got[len(got)-1] {
			t.Errorf("%s: stats moved across refused writes:\n%s\n%s", b.name, got[0], got[len(got)-1])
		}
		if b.c != nil && b.c.logLen() != 0 {
			t.Errorf("%s: %d refused writes reached the log", b.name, b.c.logLen())
		}
	}
}

// TestGatherMemo: a gathered read repeated while every shard stays on
// the epoch it was pinned at is one memo hit — the first read's wire
// bytes, at no more allocation than a core's warm read plus the pinned
// vector and its view — and anything that changes what the shards hold
// (a write, a crash, a restart) ends that.
func TestGatherMemo(t *testing.T) {
	c := newTestCluster(t, tcProgram, sessionInput, Options{Shards: 3, Placement: PlaceComponent})
	req := serve.Request{Op: "query", Rel: "T"}
	fence := 0
	read := func() []byte {
		t.Helper()
		resp := c.Read(-1, req, fence)
		b, err := resp.Encode()
		if err != nil || !resp.OK {
			t.Fatalf("gathered read: %+v, %v", resp, err)
		}
		return b
	}
	// settle reads until two reads in a row share their bytes: a shard
	// replaying its log publishes epochs for a while after Restart.
	settle := func(what string) []byte {
		t.Helper()
		c.Quiesce()
		a, b := read(), read()
		if &a[0] != &b[0] {
			t.Fatalf("%s: a repeated gathered read was rendered again", what)
		}
		return a
	}
	stale := func(what string, before, after []byte) {
		t.Helper()
		if &before[0] == &after[0] {
			t.Errorf("%s: the gathered read still answers from the old memo", what)
		}
	}

	b0 := settle("fresh cluster")
	core := c.ShardCore(0)
	core.Do(req)
	warm := testing.AllocsPerRun(100, func() { core.Do(req) })
	if got := testing.AllocsPerRun(100, func() { c.Read(-1, req, fence) }); got > warm+2 {
		t.Errorf("memoized gathered read allocates %v times, want at most a core's warm read (%v) + 2 for the fan-out", got, warm)
	}

	resp, g := c.SubmitWrite(serve.Request{Op: "insert", Facts: []string{"E(y,z)"}})
	if !resp.OK {
		t.Fatalf("write: %+v", resp)
	}
	fence = g
	b1 := settle("after a write")
	stale("write", b0, b1)
	if !bytes.Contains(b1, []byte(`"T(x,z)"`)) {
		t.Errorf("read after write misses the new closure: %s", b1)
	}

	// A write that changes no fact still moves the log, and with it the
	// position an epoch echo reports.
	echo := serve.Request{Op: "query", Rel: "T", Epoch: true}
	e1 := c.Read(-1, echo, fence)
	if _, g = c.SubmitWrite(serve.Request{Op: "insert", Facts: []string{"E(y,z)"}}); g != fence+1 {
		t.Fatalf("no-op write logged at %d, want %d", g, fence+1)
	}
	fence = g
	c.Quiesce()
	if e2 := c.Read(-1, echo, fence); e1.Epoch == nil || e2.Epoch == nil || *e2.Epoch != *e1.Epoch+1 {
		t.Errorf("epoch echo across a no-op write: %v then %v, want +1", e1.Epoch, e2.Epoch)
	}

	b1 = settle("before the crash")
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	b2 := settle("with a shard down")
	stale("crash", b1, b2)
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	b3 := settle("after the restart")
	stale("restart", b2, b3)
	if !bytes.Equal(b3, b1) {
		t.Errorf("recovered cluster answers\n%s\nbefore the crash it answered\n%s", b3, b1)
	}
}

// TestGatherMemoIgnoresClientChosenStrings is the serve package's memo
// bound, through a partitioned router: reads that differ only in
// strings the answer ignores, or that name relations no shard holds,
// leave the gathered memo at the size of what the cluster holds.
func TestGatherMemoIgnoresClientChosenStrings(t *testing.T) {
	c := newTestCluster(t, tcProgram, sessionInput, Options{Shards: 3, Placement: PlaceComponent})
	ops := []string{"query", "facts", "stats", "ping"}
	var in strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&in, `{"op":%q,"rel":"junk%d"}`+"\n", ops[i%len(ops)], i)
	}
	in.WriteString(`{"op":"query","rel":"E"}` + "\n" + `{"op":"query","rel":"T"}` + "\n")
	got, err := serveAll(NewRouter(c), in.String())
	if err != nil || len(got) != 10002 {
		t.Fatalf("%d responses, %v", len(got), err)
	}
	for i, line := range got {
		if !strings.HasPrefix(line, `{"ok":true`) {
			t.Fatalf("response %d: %s", i, line)
		}
	}
	// Two relations present (E, T): their queries, facts and stats. A
	// partitioned ping asks no shard, so it never reaches the memo.
	// The memo's size is serve's business; a test may look.
	n := reflect.ValueOf(&c.gmemo.Load().memo).Elem().FieldByName("resps").Len()
	if max := len(ops) * 2; n != 4 || n > max {
		t.Errorf("gathered memo holds %d responses after 10^4 junk reads, want 4 (bound %d)", n, max)
	}
}

// TestLogRecordHoldsOnlyWhatItPlaces: the log lives as long as the
// cluster, so what one write leaves in it is the cluster's memory
// growth per write. A partitioned record holds a sub-delta for the
// shards it touches and nothing for the rest; a replicated one holds
// one sub-delta however many shards apply it. Either is then the sub
// alone, with no slice or side record, and what 2·10⁴ one-fact writes
// leave on the heap is at most 64 B each: the record, its log slot and
// the fact's text at its exact size (96.5 B when a record kept a
// one-element subs array and Fact.String's spare capacity).
func TestLogRecordHoldsOnlyWhatItPlaces(t *testing.T) {
	write := serve.Request{Op: "insert", Facts: []string{"E(y,z)"}}
	for _, b := range backends(t, serve.Options{})[1:] {
		if resp, _ := b.c.SubmitWrite(write); !resp.OK {
			t.Fatalf("%s: %+v", b.name, resp)
		}
		if rec := b.c.log[0]; rec.more != nil {
			t.Errorf("%s: a one-fact write left %d sub-deltas in its log record, want 1", b.name, 1+len(rec.more.subs))
		}
	}

	c := backends(t, serve.Options{})[2].c
	toggle := func(i int) {
		req := write
		if i%2 == 0 {
			req.Op = "retract"
		}
		if resp, _ := c.SubmitWrite(req); !resp.OK {
			t.Fatalf("write %d: %+v", i, resp)
		}
	}
	heap := func() uint64 {
		c.Quiesce()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 1000; i++ {
		toggle(i)
	}
	const writes = 20000
	before := heap()
	for i := 0; i < writes; i++ {
		toggle(i)
	}
	per := (float64(heap()) - float64(before)) / writes
	t.Logf("a partitioned one-fact write leaves %.1f B on the heap", per)
	if per > 64 {
		t.Errorf("a partitioned one-fact write leaves %.1f B on the heap, want at most 64", per)
	}
}
