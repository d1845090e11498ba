package obs

import (
	"io"
	"testing"
)

// sinkhole defeats dead-code elimination in the overhead benchmarks.
var sinkhole uint64

// work burns a handful of nanoseconds of real, unelidable arithmetic —
// a stand-in for the per-candidate work of a fixpoint inner loop, so
// the disabled-instrumentation delta is measured against a realistic
// baseline rather than an empty loop.
func work(x uint64) uint64 {
	for i := 0; i < 8; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// disabledShapes are the call shapes the engines make per inner-loop
// iteration with instrumentation off: nil-receiver counter, gauge and
// histogram updates, a phase span and its child started on a disabled
// context with a nil histogram, an attribute too large to box for free
// set behind the span's Enabled guard (ActiveSpan.Attr), and a
// nil-guarded event emit on the same nil tracer.
func disabledShapes(n int) []struct {
	name string
	fn   func()
} {
	var c *Counter
	var g *Gauge
	var l *LatencyHist
	var t *Tracer
	tc := t.Root(TraceID{})
	return []struct {
		name string
		fn   func()
	}{
		{"counter", func() { c.Add(1) }},
		{"gauge", func() { g.Set(int64(n)) }},
		{"histogram", func() { l.Observe(int64(n)) }},
		{"root", func() { tc = t.Root(TraceID{}) }},
		{"span", func() {
			sp := tc.Start("ev", l)
			sp.SetEpoch(n)
			sp.Ctx().Start("child", l).Finish()
			sp.Finish()
		}},
		{"attr", func() {
			sp := tc.Start("ev", l)
			if sp.Ctx().Enabled() {
				sp.Attr("facts", n)
			}
			sp.Finish()
		}},
		{"emit", func() {
			if t != nil {
				t.Emit("ev", F("n", n))
			}
		}},
	}
}

// TestDisabledPathsAllocateNothing is the contract behind "disabled
// instrumentation costs ~zero", as counters: every disabled call shape
// allocates nothing. scripts/check.sh runs it and also checks that
// go build -gcflags=-m reports the nil fast paths inlined.
func TestDisabledPathsAllocateNothing(t *testing.T) {
	for _, s := range disabledShapes(1 << 20) {
		if a := testing.AllocsPerRun(100, s.fn); a != 0 {
			t.Errorf("disabled %s: %.1f allocations a call, want 0", s.name, a)
		}
	}
}

// BenchmarkDisabledOverhead times the disabled call shapes against the
// bare workload ("baseline"): informational, not gated —
// TestDisabledPathsAllocateNothing and the inlining check are.
func BenchmarkDisabledOverhead(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		x := uint64(1)
		for n := 0; n < b.N; n++ {
			x = work(x)
		}
		sinkhole = x
	})
	b.Run("disabled", func(b *testing.B) {
		var c *Counter
		var g *Gauge
		var l *LatencyHist
		var t *Tracer
		tc := t.Root(TraceID{})
		x := uint64(1)
		for n := 0; n < b.N; n++ {
			x = work(x)
			c.Add(1)
			g.Set(int64(n))
			l.Observe(int64(n))
			sp := tc.Start("ev", l)
			sp.SetEpoch(n)
			sp.Ctx().Start("child", l).Finish()
			sp.Finish()
			if t != nil {
				t.Emit("ev", F("n", n))
			}
		}
		sinkhole = x
	})
}

// BenchmarkEnabled records the cost of the enabled paths for the
// curious; it is informational, not gated.
func BenchmarkEnabled(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("c")
		for n := 0; n < b.N; n++ {
			c.Add(1)
		}
	})
	b.Run("emit", func(b *testing.B) {
		s := NewStream(io.Discard)
		for n := 0; n < b.N; n++ {
			s.Emit("bench.event", F("n", n), F("s", "x"))
		}
	})
}
