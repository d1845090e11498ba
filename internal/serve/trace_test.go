package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/spans.golden")

// traceScript is a serial session mixing writes (queue_wait / apply /
// commit phases), plain reads (render phase), and a malformed line.
var traceScript = []string{
	`{"op":"insert","facts":["E(a,b)","E(b,c)"]}`,
	`{"op":"query","rel":"T"}`,
	`{"op":"retract","facts":["E(a,b)"]}`,
	`{"op":"query","rel":"T","epoch":true}`,
	`not json`,
	`{"op":"stats"}`,
}

// spanStream runs the script through a fresh core with a deterministic
// tracer as a genuinely serial session — a ping-pong client that waits
// for each response before sending the next line, so request N's spans
// are all finished (spans finish before the response is handed over)
// when request N+1 starts — and returns the finished span stream as
// JSONL bytes.
func spanStream(t *testing.T) []byte {
	t.Helper()
	tr := obs.NewTracer(1024, true)
	reg := obs.NewRegistry()
	c := newTestCore(t, "E(s,t)\n", Options{Tracer: tr, Reg: reg})
	pingPong(t, c, traceScript)
	c.Close()
	// A serial client never has a write outstanding when it reads: the
	// fence of each write is open before its response can be seen, so
	// no read may be counted (or spanned) as having waited on one.
	if n := reg.Snapshot().Counters[obs.CoordFenceWaits]; n != 0 {
		t.Errorf("serial session reported %s = %d, want 0", obs.CoordFenceWaits, n)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, 0); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// pingPong runs lines through one Serve call as a serial client: each
// line is sent only after the previous response has been read.
func pingPong(t *testing.T, c *Core, lines []string) {
	t.Helper()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := c.Serve(reqR, respW)
		respW.Close()
		done <- err
	}()
	br := bufio.NewReader(respR)
	for _, line := range lines {
		if _, err := io.WriteString(reqW, line+"\n"); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	reqW.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSpanStreamDeterministic is the span plane's determinism
// contract (DESIGN.md §13): equal serial sessions against equal cores
// under a deterministic tracer produce byte-identical span streams —
// trace ids are positional, span ids are per-trace counters, logical
// timestamps are epoch sequence numbers, and wall-clock fields are
// zeroed. The stream is also pinned across changes: it must equal
// testdata/spans.golden byte for byte (regenerate with -update only
// after an intended change to the span plane).
func TestSpanStreamDeterministic(t *testing.T) {
	a := spanStream(t)
	b := spanStream(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("span streams differ between equal runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no spans recorded")
	}
	golden := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(golden); err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	} else if !bytes.Equal(a, want) {
		t.Fatalf("span stream differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, a, want)
	}

	// Structural spot checks on the stream, not just self-equality.
	stream := string(a)
	for _, want := range []string{
		`"span":"srv.req"`,
		`"span":"srv.queue_wait"`,
		`"span":"incr.apply"`,
		`"overdeleted":`, // the apply span says what the deletion phase did
		`"rederived":`,
		`"kept":`,
		`"span":"srv.apply"`,
		`"span":"srv.commit"`,
		`"span":"srv.render"`,
		`"trace":"c1-1"`,          // first request on connection 1
		`"op":"insert"`,           // decoded op stamped on the req span
		`"op":"?"`,                // malformed line still traced
		`"start_ns":0,"dur_ns":0`, // deterministic mode zeroes wall clock
	} {
		if !strings.Contains(stream, want) {
			t.Errorf("span stream missing %s in:\n%s", want, stream)
		}
	}
	if strings.Contains(stream, `"start_ns":1`) {
		t.Errorf("deterministic stream leaked a wall-clock start:\n%s", stream)
	}

	// Every request line got a root srv.req span.
	if got := strings.Count(stream, `"span":"srv.req"`); got != len(traceScript) {
		t.Errorf("srv.req spans = %d, want %d:\n%s", got, len(traceScript), stream)
	}
}

// TestPhaseSpansMatchHistograms checks that a timed phase has one
// clock: with a wall-clock tracer and one registry shared by the core
// and its materialization, every phase histogram counts exactly the
// spans of that phase over a session — the trace script, whose writes
// and reads each pass every phase once, and a no-op insert, which is
// queued, applied and committed like any other write.
func TestPhaseSpansMatchHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1<<12, false)
	inst, err := fact.ParseInstance("E(s,t)\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := incr.New(datalog.MustParseProgram(testProgram), inst, incr.Options{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(m, Options{Reg: reg, Tracer: tr})
	t.Cleanup(c.Close)
	// The initial materialization is an apply no request traces.
	before := reg.Snapshot().Latencies
	pingPong(t, c, append(traceScript[:len(traceScript):len(traceScript)], `{"op":"insert","facts":["E(b,c)"]}`))

	spans := spanCounts(t, tr)
	after := reg.Snapshot().Latencies
	for _, p := range []struct{ span, hist string }{
		{obs.SpanQueueWait, obs.SrvQueueWaitNs},
		{obs.SpanApply, obs.SrvApplyNs},
		{obs.SpanCommit, obs.SrvCommitNs},
		{obs.SpanRender, obs.SrvRenderNs},
		{obs.SpanIncrApply, obs.IncrApplyNs},
	} {
		timed := after[p.hist].Count - before[p.hist].Count
		if timed != 3 || spans[p.span] != 3 {
			t.Errorf("%s timed %d times and spanned %d times, want 3 and 3", p.hist, timed, spans[p.span])
		}
	}
}

// TestMetricsCostNoAllocation checks that a registry without a tracer
// times every phase without allocating: Do costs as many allocations
// with metrics on as with instrumentation off, for a read and for a
// write that changes the state.
func TestMetricsCostNoAllocation(t *testing.T) {
	allocs := func(reg *obs.Registry) (read, write float64) {
		inst, err := fact.ParseInstance("E(a,b)\nE(b,c)\n")
		if err != nil {
			t.Fatal(err)
		}
		m, err := incr.New(datalog.MustParseProgram(testProgram), inst, incr.Options{Reg: reg})
		if err != nil {
			t.Fatal(err)
		}
		c := NewCore(m, Options{Reg: reg})
		defer c.Close()
		query := Request{Op: "query", Rel: "T"}
		read = testing.AllocsPerRun(100, func() { c.Do(query) })
		ops := [2]Request{
			{Op: "insert", Facts: []string{"E(c,d)"}},
			{Op: "retract", Facts: []string{"E(c,d)"}},
		}
		n := 0
		write = testing.AllocsPerRun(100, func() {
			if r := c.Do(ops[n%2]); !r.OK {
				t.Fatalf("%s: %s", ops[n%2].Op, r.Err)
			}
			n++
		})
		return read, write
	}
	offRead, offWrite := allocs(nil)
	onRead, onWrite := allocs(obs.NewRegistry())
	if onRead != offRead || onWrite != offWrite {
		t.Errorf("allocations per Do with metrics on: read %.1f, write %.1f; with metrics off: read %.1f, write %.1f",
			onRead, onWrite, offRead, offWrite)
	}
	t.Logf("allocations per Do: read %.1f, write %.1f", onRead, onWrite)
}

// spanCounts counts the spans the tracer's ring holds, by name, from
// the JSONL the ring renders.
func spanCounts(t *testing.T, tr *obs.Tracer) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var r struct {
			Span string `json:"span"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		counts[r.Span]++
	}
	return counts
}
