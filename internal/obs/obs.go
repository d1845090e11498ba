// Package obs is the repository-wide instrumentation substrate, in two
// planes with different determinism contracts:
//
//   - Records (Tracer, trace.go) are a run's observable record: events
//     an engine emits and the spans a request passes through, one
//     record type rendered by one encoder as JSONL, kept in a ring or
//     written to a stream. Under a deterministic tracer they must be
//     byte-identical for a fixed seed across runs and worker counts, so
//     they never carry wall-clock times or scheduling-dependent values.
//   - Metrics (Registry) are aggregates for humans and dashboards:
//     counters, gauges and latency histograms, phase durations and
//     worker-utilization figures among them, and the snapshot is
//     allowed to vary run to run. A phase is timed by the span that
//     covers it (SpanCtx.Start), never beside it, and its duration is
//     never emitted as an event field.
//
// It has no dependencies outside the standard library and, crucially,
// a nil fast path: every method is a no-op on a nil receiver, so
// disabled instrumentation costs one predictable branch per call site
// (gated by the BenchmarkDisabledOverhead check in scripts/check.sh).
// Engines hold possibly-nil handles and never need an "is
// instrumentation on?" flag.
//
// The canonical metric, event and span names shared by all packages
// are in names.go and documented in DESIGN.md §8.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter ignores all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. No-op on a nil counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins atomic gauge. A nil *Gauge ignores all
// updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names and owns a process's metrics. Instruments are created
// on first use and shared afterwards; all methods are safe for
// concurrent use. A nil *Registry hands out nil instruments, which in
// turn ignore all updates — the disabled fast path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	lats     map[string]*LatencyHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		lats:     make(map[string]*LatencyHist),
	}
}

// Counter returns the named counter, creating it if needed. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Latency returns the named log-scale latency histogram, creating it
// if needed. Returns nil on a nil registry.
func (r *Registry) Latency(name string) *LatencyHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.lats[name]
	if !ok {
		h = &LatencyHist{}
		r.lats[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry, marshalable with
// encoding/json (map keys are emitted in sorted order, so the JSON is
// deterministic for deterministic values).
type Snapshot struct {
	Counters  map[string]int64           `json:"counters"`
	Gauges    map[string]int64           `json:"gauges,omitempty"`
	Latencies map[string]LatencySnapshot `json:"latencies,omitempty"`
}

// Snapshot copies the registry's current values. Returns an empty
// snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	lats := make(map[string]*LatencyHist, len(r.lats))
	for k, v := range r.lats {
		lats[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(lats) > 0 {
		s.Latencies = make(map[string]LatencySnapshot, len(lats))
		for k, h := range lats {
			s.Latencies[k] = h.Snapshot()
		}
	}
	return s
}

// CounterNames returns the sorted names of all counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// writeJSON writes the registry snapshot as indented JSON. Safe on a
// nil registry (writes an empty snapshot).
func (r *Registry) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
