package serve

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
)

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
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := c.Serve(reqR, respW)
		respW.Close()
		done <- err
	}()
	br := bufio.NewReader(respR)
	for _, line := range traceScript {
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

// TestSpanStreamDeterministic is the span plane's determinism
// contract (DESIGN.md §13): equal serial sessions against equal cores
// under a deterministic tracer produce byte-identical span streams —
// trace ids are positional, span ids are per-trace counters, logical
// timestamps are epoch sequence numbers, and wall-clock fields are
// zeroed.
func TestSpanStreamDeterministic(t *testing.T) {
	a := spanStream(t)
	b := spanStream(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("span streams differ between equal runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no spans recorded")
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
