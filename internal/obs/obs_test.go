package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name must return the same counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.SetMax(3) // lower: ignored
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge after SetMax = %d, want 11", got)
	}

	h := r.Latency("h")
	for _, v := range []int64{4, 2, 9} {
		h.Observe(v)
	}
	snap := r.Snapshot().Latencies["h"]
	if snap.Count != 3 || snap.Sum != 15 || snap.Min != 2 || snap.Max != 9 {
		t.Fatalf("histogram snapshot = %+v, want count 3 sum 15 min 2 max 9", snap)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Latency("x")
	var tr *Tracer
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Add(3)
	c.Inc()
	g.Set(1)
	g.SetMax(2)
	h.Observe(9)
	tr.Emit("ev", F("k", 1))
	SpanCtx{}.Start("span", h).Finish()
	if c.Value() != 0 || g.Value() != 0 || tr.records(0) != nil {
		t.Fatal("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || r.CounterNames() != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestSpanRecordsDuration checks that a span is its phase's timer:
// with tracing off it still observes its histogram, and with a
// tracer on the histogram and the recorded span share one duration —
// the real one, even when a deterministic tracer zeroes the span's.
func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry()
	SpanCtx{}.Start("work", r.Latency("work_ns")).Finish()
	if snap := r.Snapshot().Latencies["work_ns"]; snap.Count != 1 || snap.Sum < 0 {
		t.Fatalf("span did not record: %+v", snap)
	}

	for _, det := range []bool{false, true} {
		tr := NewTracer(8, det)
		h := &LatencyHist{}
		sp := tr.Root(TraceID{Conn: 1}).Start("work", h)
		time.Sleep(time.Millisecond)
		sp.Finish()
		s := tr.records(0)
		if len(s) != 1 || h.Snapshot().Count != 1 {
			t.Fatalf("det=%v: %d spans, %d observations, want 1 and 1", det, len(s), h.Snapshot().Count)
		}
		if h.Snapshot().Sum < int64(time.Millisecond) {
			t.Errorf("det=%v: histogram got %d ns for a 1 ms phase", det, h.Snapshot().Sum)
		}
		want := h.Snapshot().Sum
		if det {
			want = 0
		}
		if s[0].durNs != want || (s[0].startNs == 0) != det {
			t.Errorf("det=%v: span start_ns %d dur_ns %d, histogram %d", det, s[0].startNs, s[0].durNs, h.Snapshot().Sum)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("peak").SetMax(int64(i))
				r.Latency("dist").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestWriteJSONDeterministicAndValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Gauge("g").Set(5)
	r.Latency("h").Observe(3)
	var s1, s2 strings.Builder
	if err := r.WriteJSON(&s1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("registry JSON is not deterministic")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(s1.String()), &snap); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, s1.String())
	}
	if snap.Counters["a.one"] != 1 || snap.Counters["b.two"] != 2 || snap.Gauges["g"] != 5 {
		t.Fatalf("round-tripped snapshot wrong: %+v", snap)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a.one" || names[1] != "b.two" {
		t.Fatalf("CounterNames = %v", names)
	}
}
