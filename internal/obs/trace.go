package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-tracing plane: deterministic trace
// contexts threaded end-to-end through the serving stack (session →
// router → write log → shard pump → serving core → incremental
// apply), recording nestable spans into a bounded in-memory ring that
// the admin endpoint streams as JSONL (/trace?n=K).
//
// Determinism contract (DESIGN.md §13): trace IDs are derived from
// (connection, request-sequence) — never random — and spans carry
// logical timestamps (epoch, seq, shard) alongside wall-clock fields.
// Under a deterministic Tracer the wall-clock fields are never stamped
// and render as zero, so a serially driven session produces a
// byte-identical span stream for equal inputs; the golden span tests
// in internal/serve pin exactly that. Span attributes must therefore
// be deterministic values (counts, logical positions) — never
// durations, never scheduling-dependent observations.
//
// A span is also its phase's only timer: Finish feeds the phase's
// LatencyHist and the ring from one clock reading. Nil-safety matches
// the rest of the package: a nil *Tracer hands out disabled SpanCtx
// values, whose Start with a nil histogram returns the zero
// ActiveSpan, whose methods all no-op — disabled tracing costs one
// branch per call site, gated by BenchmarkDisabledOverhead.

// TraceID identifies one request's trace: the serving connection id
// and the request's sequence number on that connection. Negative Conn
// values are reserved for detached actors with no client connection
// (shard pumps use -(1+shard)).
type TraceID struct {
	Conn int64
	Seq  int64
}

// appendTraceID renders the id as c<conn>-<seq>.
func appendTraceID(buf []byte, id TraceID) []byte {
	buf = append(buf, 'c')
	buf = strconv.AppendInt(buf, id.Conn, 10)
	buf = append(buf, '-')
	return strconv.AppendInt(buf, id.Seq, 10)
}

// Span is one finished span record. Logical fields use -1 for
// "unset"; wall-clock fields are 0 under a deterministic tracer.
type Span struct {
	Trace  TraceID
	ID     int32 // span id within the trace, 1-based in Finish order of Start
	Parent int32 // parent span id; 0 = root
	Name   string
	// Logical timestamp: the epoch sequence the span observed or
	// produced, the log/request sequence position, and the shard.
	Epoch int64
	Seq   int64
	Shard int64
	// Wall-clock fields: span start (unix nanoseconds) and duration.
	// Both stay 0 under a deterministic tracer.
	StartNs int64
	DurNs   int64
	// Attrs are optional ordered extras; values must be deterministic
	// (see the package comment).
	Attrs []Field
}

// Tracer collects finished spans into a fixed-capacity ring. Create
// with NewTracer; a nil *Tracer disables tracing everywhere it is
// handed to.
type Tracer struct {
	det bool
	cap int

	mu   sync.Mutex
	ring []Span
	next int
}

// NewTracer returns a tracer keeping the last capacity spans
// (default 4096 when capacity <= 0). A deterministic tracer stamps no
// wall-clock fields: spans carry logical timestamps only (a phase
// histogram passed to Start still gets the real duration).
func NewTracer(capacity int, deterministic bool) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{det: deterministic, cap: capacity}
}

// record appends one finished span to the ring.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next = (t.next + 1) % t.cap
	}
	t.mu.Unlock()
}

// Spans returns the most recent n spans in record order (oldest
// first). n <= 0 or n larger than the ring returns everything held.
func (t *Tracer) Spans(n int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	held := len(t.ring)
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Span, n)
	if n == 0 {
		return out
	}
	// Oldest-first the ring reads ring[next:] then ring[:next]; the
	// newest n start n back from the write cursor and may wrap.
	k := copy(out, t.ring[(t.next+held-n)%held:])
	copy(out[k:], t.ring)
	return out
}

// WriteJSONL streams the most recent n spans (see Spans) as JSONL,
// one object per line, oldest first.
func (t *Tracer) WriteJSONL(w io.Writer, n int) error {
	var buf []byte
	for _, s := range t.Spans(n) {
		buf = AppendSpanJSON(buf[:0], &s)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// AppendSpanJSON renders one span as a compact JSON line (with
// trailing newline). Hand-rolled like appendJSONL, and for the same
// reason: field order is part of the format, so equal span sequences
// render byte-identically.
func AppendSpanJSON(buf []byte, s *Span) []byte {
	buf = append(buf, `{"span":`...)
	buf = appendJSONString(buf, s.Name)
	buf = append(buf, `,"trace":"`...)
	buf = appendTraceID(buf, s.Trace)
	buf = append(buf, `","id":`...)
	buf = strconv.AppendInt(buf, int64(s.ID), 10)
	buf = append(buf, `,"parent":`...)
	buf = strconv.AppendInt(buf, int64(s.Parent), 10)
	if s.Epoch >= 0 {
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendInt(buf, s.Epoch, 10)
	}
	if s.Seq >= 0 {
		buf = append(buf, `,"seq":`...)
		buf = strconv.AppendInt(buf, s.Seq, 10)
	}
	if s.Shard >= 0 {
		buf = append(buf, `,"shard":`...)
		buf = strconv.AppendInt(buf, s.Shard, 10)
	}
	buf = append(buf, `,"start_ns":`...)
	buf = strconv.AppendInt(buf, s.StartNs, 10)
	buf = append(buf, `,"dur_ns":`...)
	buf = strconv.AppendInt(buf, s.DurNs, 10)
	for _, f := range s.Attrs {
		buf = append(buf, ',')
		buf = appendJSONString(buf, f.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, f.Value)
	}
	return append(buf, '}', '\n')
}

// SpanCtx is a position in a trace: everything needed to start child
// spans. The zero value is a disabled context: spans started from it
// are timed into their histogram but never recorded. SpanCtx values
// are plain values — copy them across goroutines freely; the span-id
// allocator is shared and atomic.
type SpanCtx struct {
	t     *Tracer
	trace TraceID
	id    int32         // this context's span id (0 = trace root)
	ctr   *atomic.Int32 // shared span-id allocator for the trace
}

// Root returns the root context for a new trace. On a nil tracer the
// returned context is disabled and allocates nothing.
func (t *Tracer) Root(id TraceID) SpanCtx {
	if t == nil {
		return SpanCtx{}
	}
	return SpanCtx{t: t, trace: id, ctr: &atomic.Int32{}}
}

// Enabled reports whether spans started from this context are
// recorded.
func (c SpanCtx) Enabled() bool { return c.t != nil }

// Start opens a child span named name, its phase's one timer: Finish
// observes the duration into h (nil when no Registry is on) and records
// the span when the context is enabled, from one clock reading. The
// span allocates only when it is recorded. A phase no trace reaches
// (the engines' evaluation and round timers) starts from the zero
// SpanCtx, where the name is unused.
func (c SpanCtx) Start(name string, h *LatencyHist) ActiveSpan {
	if c.t == nil && h == nil {
		return ActiveSpan{} // small enough to inline: the disabled path is one branch
	}
	return c.start(name, h)
}

func (c SpanCtx) start(name string, h *LatencyHist) ActiveSpan {
	a := ActiveSpan{h: h}
	if c.t != nil {
		id := c.ctr.Add(1)
		a.rec = &spanRec{
			ctx: SpanCtx{t: c.t, trace: c.trace, id: id, ctr: c.ctr},
			s:   Span{Trace: c.trace, ID: id, Parent: c.id, Name: name, Epoch: -1, Seq: -1, Shard: -1},
		}
	}
	if h != nil || (c.t != nil && !c.t.det) {
		a.start = time.Now()
		if a.rec != nil && !c.t.det {
			a.rec.s.StartNs = a.start.UnixNano()
		}
	}
	return a
}

// ActiveSpan is one phase between Start and Finish. The zero value is
// disabled: every method no-ops, so call sites never guard. Copies
// share the span being recorded; finish exactly one of them, once.
type ActiveSpan struct {
	h     *LatencyHist
	start time.Time // zero when no histogram or wall-clock tracer reads it
	rec   *spanRec  // nil when the span is not recorded
}

// spanRec is the recorded half of an ActiveSpan: the context children
// nest under and the span record its setters stamp.
type spanRec struct {
	ctx SpanCtx
	s   Span
}

// Ctx returns the context for nesting children under this span (a
// disabled context when the span is not recorded).
func (a ActiveSpan) Ctx() SpanCtx {
	if a.rec == nil {
		return SpanCtx{}
	}
	return a.rec.ctx
}

// SetEpoch stamps the epoch-sequence logical timestamp.
func (a ActiveSpan) SetEpoch(e int) ActiveSpan {
	if a.rec != nil {
		a.rec.s.Epoch = int64(e)
	}
	return a
}

// SetSeq stamps the log/request-sequence logical timestamp.
func (a ActiveSpan) SetSeq(s int) ActiveSpan {
	if a.rec != nil {
		a.rec.s.Seq = int64(s)
	}
	return a
}

// SetShard stamps the shard logical timestamp.
func (a ActiveSpan) SetShard(j int) ActiveSpan {
	if a.rec != nil {
		a.rec.s.Shard = int64(j)
	}
	return a
}

// Attr appends one ordered attribute. Values must be deterministic
// (counts, names, logical positions — never durations).
func (a ActiveSpan) Attr(key string, value any) ActiveSpan {
	if a.rec != nil {
		a.rec.s.Attrs = append(a.rec.s.Attrs, Field{Key: key, Value: value})
	}
	return a
}

// Finish reads the clock once, observes the duration into the span's
// histogram and records the span. A deterministic tracer records zero
// wall-clock fields while the histogram still gets the real duration.
func (a ActiveSpan) Finish() {
	if a.h != nil || a.rec != nil {
		a.finish()
	}
}

func (a ActiveSpan) finish() {
	var d int64
	if !a.start.IsZero() {
		d = time.Since(a.start).Nanoseconds()
		a.h.Observe(d)
	}
	if r := a.rec; r != nil {
		if !r.ctx.t.det {
			r.s.DurNs = d
		}
		r.ctx.t.record(r.s)
	}
}
