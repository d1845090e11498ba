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

// BenchmarkDisabledOverhead is the contract behind "disabled
// instrumentation costs ~zero": "baseline" is the bare workload,
// "disabled" adds the exact call shapes the engines use — nil-receiver
// counter/gauge updates and a nil-guarded sink emit. scripts/check.sh
// runs both and gates the delta.
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
		var s *Sink
		var t *Tracer
		tc := t.Root(TraceID{})
		x := uint64(1)
		for n := 0; n < b.N; n++ {
			x = work(x)
			c.Add(1)
			g.Set(int64(n))
			l.Observe(int64(n))
			sp := tc.Start("ev")
			sp.SetEpoch(n)
			sp.Finish()
			if s != nil {
				s.Emit("ev", F("n", n))
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
		s := NewSink(io.Discard)
		for n := 0; n < b.N; n++ {
			s.Emit("bench.event", F("n", n), F("s", "x"))
		}
	})
}
