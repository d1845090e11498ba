package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// This file is the record plane: one Tracer records a run's events
// (Emit) and its request spans (SpanCtx.Start … Finish) as one record
// type, rendered by one encoder (appendRecord) as one JSONL line —
// {"ev":…} for an event, {"span":…} for a span, which is an event with
// a trace position, a parent and a duration. A tracer has one
// destination, fixed when it is built: NewTracer keeps the last
// records in a bounded ring the admin endpoint streams (/trace?n=K),
// and NewStream writes each record to a writer as it finishes (the
// commands' -trace files).
//
// Determinism contract (DESIGN.md §13): events carry only
// deterministic values — counts, logical positions, set-derived sizes
// — so for a fixed seed the event stream is byte-identical across runs
// and worker counts. Trace IDs are derived from (connection,
// request-sequence) — never random — and spans carry logical
// timestamps (epoch, seq, shard) alongside wall-clock fields. Under a
// deterministic Tracer (every stream is one) the wall-clock fields are
// never stamped and render as zero, so a serially driven session
// produces a byte-identical span stream for equal inputs; the golden
// span tests in internal/serve pin exactly that. Span attributes must
// therefore be deterministic values too — never durations, never
// scheduling-dependent observations.
//
// A span is also its phase's only timer: Finish feeds the phase's
// LatencyHist and the tracer from one clock reading. Nil-safety matches
// the rest of the package: a nil *Tracer ignores every Emit and hands
// out disabled SpanCtx values, whose Start with a nil histogram returns
// the zero ActiveSpan, whose methods all no-op — disabled tracing costs
// one branch per call site, gated by BenchmarkDisabledOverhead.

// Field is one ordered key/value pair of a record. Field order is part
// of the trace format: the encoder emits fields in the order given, so
// a fixed emission site produces a byte-stable line.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

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

// record is one entry of a tracer: an event (id 0) or a finished span
// (span ids are 1-based). An event leaves the span fields unused.
// Logical fields use -1 for "unset"; wall-clock fields are 0 under a
// deterministic tracer.
type record struct {
	name   string // event kind or span name
	trace  TraceID
	id     int32 // span id within the trace, 1-based in Start order
	parent int32 // parent span id; 0 = root
	// Logical timestamp: the epoch sequence the span observed or
	// produced, the log/request sequence position, and the shard.
	epoch, seq, shard int64
	// Wall-clock fields: span start (unix nanoseconds) and duration.
	startNs, durNs int64
	// fields are the event's fields or the span's attributes, in order.
	fields []Field
}

// Tracer records events and spans to one destination: a ring of the
// last records (NewTracer) or a writer (NewStream). All methods are
// safe for concurrent use; a nil *Tracer records nothing.
type Tracer struct {
	det bool
	w   io.Writer // the stream; nil for a ring
	cap int

	mu   sync.Mutex
	ring []record
	next int
	buf  []byte // the stream's line buffer
	err  error  // the stream's first write error
}

// NewTracer returns a tracer keeping the last capacity records
// (default 4096 when capacity <= 0). A deterministic tracer stamps no
// wall-clock fields: spans carry logical timestamps only (a phase
// histogram passed to Start still gets the real duration).
func NewTracer(capacity int, deterministic bool) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{det: deterministic, cap: capacity}
}

// NewStream returns a deterministic tracer that writes each record to w
// as one JSONL line when it finishes. The first write error latches
// and later records are dropped.
func NewStream(w io.Writer) *Tracer { return &Tracer{det: true, w: w} }

// Emit records one event: a kind (see the Ev* constants in names.go)
// plus ordered fields. No-op on a nil tracer. Holders guard hot paths
// with a plain nil check, because building the variadic field list
// allocates even when nothing records it:
//
//	if s.tracer != nil { s.tracer.Emit(...) }
func (t *Tracer) Emit(kind string, fields ...Field) {
	if t != nil {
		t.record(&record{name: kind, fields: fields})
	}
}

// record appends one finished record to the ring or writes it to the
// stream.
func (t *Tracer) record(r *record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.w == nil && len(t.ring) < t.cap:
		t.ring = append(t.ring, *r)
	case t.w == nil:
		t.ring[t.next] = *r
		t.next = (t.next + 1) % t.cap
	case t.err == nil:
		t.buf = appendRecord(t.buf[:0], r)
		_, t.err = t.w.Write(t.buf)
	}
}

// writeErr returns the stream's first write error, if any.
func (t *Tracer) writeErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// records returns the ring's most recent n records in record order
// (oldest first). n <= 0 or n larger than the ring returns everything
// held; a stream holds nothing.
func (t *Tracer) records(n int) []record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	held := len(t.ring)
	if n <= 0 || n > held {
		n = held
	}
	out := make([]record, n)
	if n == 0 {
		return out
	}
	// Oldest-first the ring reads ring[next:] then ring[:next]; the
	// newest n start n back from the write cursor and may wrap.
	k := copy(out, t.ring[(t.next+held-n)%held:])
	copy(out[k:], t.ring)
	return out
}

// WriteJSONL writes the ring's most recent n records (see records) as
// JSONL, oldest first.
func (t *Tracer) WriteJSONL(w io.Writer, n int) error {
	var buf []byte
	for _, r := range t.records(n) {
		buf = appendRecord(buf[:0], &r)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendRecord renders one record as one compact JSON object and a
// newline: {"ev":kind,fields…} or {"span":name,"trace":…,fields…}.
// Rendering is hand-rolled (rather than encoding/json) precisely to
// preserve field order — byte-identical traces for equal seeds are a
// tested contract.
func appendRecord(buf []byte, r *record) []byte {
	if r.id == 0 {
		buf = append(buf, `{"ev":`...)
		buf = appendJSONString(buf, r.name)
	} else {
		buf = append(buf, `{"span":`...)
		buf = appendJSONString(buf, r.name)
		buf = append(buf, `,"trace":"`...)
		buf = appendTraceID(buf, r.trace)
		buf = append(buf, `","id":`...)
		buf = strconv.AppendInt(buf, int64(r.id), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(r.parent), 10)
		if r.epoch >= 0 {
			buf = append(buf, `,"epoch":`...)
			buf = strconv.AppendInt(buf, r.epoch, 10)
		}
		if r.seq >= 0 {
			buf = append(buf, `,"seq":`...)
			buf = strconv.AppendInt(buf, r.seq, 10)
		}
		if r.shard >= 0 {
			buf = append(buf, `,"shard":`...)
			buf = strconv.AppendInt(buf, r.shard, 10)
		}
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, r.startNs, 10)
		buf = append(buf, `,"dur_ns":`...)
		buf = strconv.AppendInt(buf, r.durNs, 10)
	}
	for _, f := range r.fields {
		buf = append(buf, ',')
		buf = appendJSONString(buf, f.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, f.Value)
	}
	return append(buf, '}', '\n')
}

func appendJSONValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case bool:
		return strconv.AppendBool(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	case float64:
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case string:
		return appendJSONString(buf, x)
	case fmt.Stringer:
		return appendJSONString(buf, x.String())
	default:
		return appendJSONString(buf, fmt.Sprint(x))
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Control
// characters, quotes and backslashes are escaped; valid UTF-8 passes
// through raw (JSON permits it), and invalid bytes are escaped so the
// output is always well-formed.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				buf = append(buf, '\\', c)
			case c == '\n':
				buf = append(buf, '\\', 'n')
			case c == '\t':
				buf = append(buf, '\\', 't')
			case c == '\r':
				buf = append(buf, '\\', 'r')
			case c < 0x20:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				buf = append(buf, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		buf = append(buf, s[i:i+size]...)
		i += size
	}
	return append(buf, '"')
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
			r:   record{trace: c.trace, id: id, parent: c.id, name: name, epoch: -1, seq: -1, shard: -1},
		}
	}
	if h != nil || (c.t != nil && !c.t.det) {
		a.start = time.Now()
		if a.rec != nil && !c.t.det {
			a.rec.r.startNs = a.start.UnixNano()
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
// nest under and the record its setters stamp.
type spanRec struct {
	ctx SpanCtx
	r   record
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
		a.rec.r.epoch = int64(e)
	}
	return a
}

// SetSeq stamps the log/request-sequence logical timestamp.
func (a ActiveSpan) SetSeq(s int) ActiveSpan {
	if a.rec != nil {
		a.rec.r.seq = int64(s)
	}
	return a
}

// SetShard stamps the shard logical timestamp.
func (a ActiveSpan) SetShard(j int) ActiveSpan {
	if a.rec != nil {
		a.rec.r.shard = int64(j)
	}
	return a
}

// Attr appends one ordered attribute. Values must be deterministic
// (counts, names, logical positions — never durations). On a disabled
// span it does nothing, but the value is boxed into an any at the call
// site first, so an int of 256 or more, or a string built for the call,
// allocates with tracing off. Where such a value is computed on a
// request path, guard the call:
//
//	if sp.Ctx().Enabled() {
//		sp.Attr("facts", w.Len())
//	}
func (a ActiveSpan) Attr(key string, value any) ActiveSpan {
	if a.rec != nil {
		a.rec.r.fields = append(a.rec.r.fields, Field{Key: key, Value: value})
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
			r.r.durNs = d
		}
		r.ctx.t.record(&r.r)
	}
}
