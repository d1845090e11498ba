package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestTracerDeterministic pins the core contract: two identical span
// sequences on deterministic tracers render byte-identical JSONL, and
// wall-clock fields stay zero.
func TestTracerDeterministic(t *testing.T) {
	run := func() string {
		tr := NewTracer(64, true)
		tc := tr.Root(TraceID{Conn: 3, Seq: 7})
		req := tc.Start(SpanReq, nil).SetSeq(7)
		req.Attr("op", "insert")
		apply := req.Ctx().Start(SpanApply, nil)
		apply.SetEpoch(12).SetShard(1)
		apply.Finish()
		req.SetEpoch(12)
		req.Finish()
		var b strings.Builder
		if err := tr.WriteJSONL(&b, 0); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("equal runs differ:\n%s\nvs\n%s", a, b)
	}
	want := `{"span":"srv.apply","trace":"c3-7","id":2,"parent":1,"epoch":12,"shard":1,"start_ns":0,"dur_ns":0}
{"span":"srv.req","trace":"c3-7","id":1,"parent":0,"epoch":12,"seq":7,"start_ns":0,"dur_ns":0,"op":"insert"}
`
	if a != want {
		t.Fatalf("rendered stream:\n%s\nwant:\n%s", a, want)
	}
}

// TestTracerWallClock checks the non-deterministic mode actually
// records time and the ring keeps only the most recent spans.
func TestTracerWallClock(t *testing.T) {
	tr := NewTracer(4, false)
	tc := tr.Root(TraceID{Conn: 1})
	for i := 0; i < 10; i++ {
		tc.Start(SpanReq, nil).SetSeq(i).Finish()
	}
	spans := tr.records(0)
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest-first: seqs 6,7,8,9.
	for i, s := range spans {
		if s.seq != int64(6+i) {
			t.Fatalf("span %d has seq %d, want %d", i, s.seq, 6+i)
		}
		if s.startNs == 0 {
			t.Fatal("wall-clock tracer must stamp start_ns")
		}
	}
	// Ten spans through four slots leave the write cursor at 2: the
	// newest n sit before it for n <= 2 and wrap past the end above.
	for n := 1; n <= 6; n++ {
		got := tr.records(n)
		want := min(n, 4)
		if len(got) != want {
			t.Fatalf("records(%d) returned %d spans, want %d", n, len(got), want)
		}
		for i, s := range got {
			if s.seq != int64(10-want+i) {
				t.Fatalf("records(%d)[%d] has seq %d, want %d", n, i, s.seq, 10-want+i)
			}
		}
	}
}

// TestTracerNil checks the whole disabled surface: nil tracer, zero
// SpanCtx, zero ActiveSpan.
func TestTracerNil(t *testing.T) {
	var tr *Tracer
	if tr.records(5) != nil {
		t.Fatal("nil tracer must be fully disabled")
	}
	tc := tr.Root(TraceID{Conn: 9})
	if tc.Enabled() {
		t.Fatal("nil tracer root must be disabled")
	}
	sp := tc.Start("x", nil)
	if sp != (ActiveSpan{}) {
		t.Fatal("disabled Start must return the zero span")
	}
	// Every zero-span method no-ops.
	sp.SetEpoch(1).SetSeq(2).SetShard(3).Attr("k", "v").Finish()
	if sp.Ctx().Enabled() {
		t.Fatal("nil span ctx must be disabled")
	}
	if err := tr.WriteJSONL(&strings.Builder{}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines (the
// -race test for the ring and the shared span-id allocator).
func TestTracerConcurrent(t *testing.T) {
	const workers, iters = 8, 500
	tr := NewTracer(workers*iters*2, true)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(conn int64) {
			defer wg.Done()
			tc := tr.Root(TraceID{Conn: conn})
			for i := 0; i < iters; i++ {
				sp := tc.Start(SpanReq, nil)
				child := sp.Ctx().Start(SpanApply, nil)
				child.Finish()
				sp.Finish()
			}
		}(int64(w))
	}
	wg.Wait()
	// The ring is sized to hold every span: each Finish under
	// contention must have recorded exactly one.
	spans := tr.records(0)
	if len(spans) != workers*iters*2 {
		t.Fatalf("ring holds %d spans, want %d", len(spans), workers*iters*2)
	}
	// Span ids within one trace must be unique (shared atomic counter),
	// and each worker's trace holds all of its spans.
	seen := map[TraceID]map[int32]bool{}
	for _, s := range spans {
		m := seen[s.trace]
		if m == nil {
			m = map[int32]bool{}
			seen[s.trace] = m
		}
		if m[s.id] {
			t.Fatalf("duplicate span id %d in trace %+v", s.id, s.trace)
		}
		m[s.id] = true
	}
	if len(seen) != workers {
		t.Fatalf("%d traces, want %d", len(seen), workers)
	}
	for id, m := range seen {
		if len(m) != iters*2 {
			t.Fatalf("trace %+v holds %d spans, want %d", id, len(m), iters*2)
		}
	}
}

// TestAppendTraceID pins the rendered trace-id format, including the
// negative-conn form used by detached actors (shard pumps).
func TestAppendTraceID(t *testing.T) {
	if got := string(appendTraceID(nil, TraceID{Conn: 12, Seq: 34})); got != "c12-34" {
		t.Fatalf("got %q", got)
	}
	if got := string(appendTraceID(nil, TraceID{Conn: -3, Seq: 0})); got != "c-3-0" {
		t.Fatalf("got %q", got)
	}
}
