package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestLatBucketBoundaries pins the bucket function at every boundary:
// each bucket's inclusive lower bound maps into that bucket, and the
// value one below maps into the previous one.
func TestLatBucketBoundaries(t *testing.T) {
	for idx := 0; idx < latBuckets-1; idx++ {
		lo := latBound(idx)
		if got := latBucket(lo); got != idx {
			t.Fatalf("latBucket(%d) = %d, want %d", lo, got, idx)
		}
		if idx > 0 {
			if got := latBucket(lo - 1); got != idx-1 {
				t.Fatalf("latBucket(%d) = %d, want %d", lo-1, got, idx-1)
			}
		}
	}
	// Bounds are strictly increasing, so buckets partition the range.
	for idx := 1; idx < latBuckets; idx++ {
		if latBound(idx) <= latBound(idx-1) {
			t.Fatalf("latBound not increasing at %d: %d <= %d", idx, latBound(idx), latBound(idx-1))
		}
	}
	// Bucket width never exceeds lower/latSub for log-range buckets —
	// the 12.5% relative-resolution contract.
	for idx := latSub; idx < latBuckets-1; idx++ {
		lo, hi := latBound(idx), latBound(idx+1)
		if width := hi - lo; width > lo/latSub+1 {
			t.Fatalf("bucket %d too wide: [%d,%d) width %d > %d", idx, lo, hi, width, lo/latSub)
		}
	}
}

// TestLatBucketOverflow pins overflow and clamp behaviour: huge values
// land in the last bucket, negatives clamp to bucket 0.
func TestLatBucketOverflow(t *testing.T) {
	if got := latBucket(math.MaxInt64); got != latBuckets-1 {
		t.Fatalf("latBucket(MaxInt64) = %d, want %d", got, latBuckets-1)
	}
	if got := latBucket(latBound(latBuckets - 1)); got != latBuckets-1 {
		t.Fatalf("overflow lower bound lands in %d, want %d", got, latBuckets-1)
	}
	if got := latBucket(-5); got != 0 {
		t.Fatalf("latBucket(-5) = %d, want 0", got)
	}

	var h LatencyHist
	h.Observe(math.MaxInt64)
	h.Observe(-1) // clamps to 0
	if s := h.Snapshot(); s.Count != 2 || s.Min != 0 || s.Max != math.MaxInt64 {
		t.Fatalf("count=%d min=%d max=%d", s.Count, s.Min, s.Max)
	}
	// The overflow quantile answers the overflow bucket's lower bound
	// (clamped to max, which is larger here).
	if q := h.quantile(1.0); q != latBound(latBuckets-1) {
		t.Fatalf("overflow quantile = %d, want %d", q, latBound(latBuckets-1))
	}
	snap := h.Snapshot()
	if len(snap.Buckets) != 2 {
		t.Fatalf("want 2 non-empty buckets, got %+v", snap.Buckets)
	}
	if snap.Buckets[len(snap.Buckets)-1].Le != math.MaxInt64 {
		t.Fatalf("overflow bucket Le = %d, want MaxInt64", snap.Buckets[len(snap.Buckets)-1].Le)
	}
}

// TestLatencyHistQuantileError bounds the quantile estimate: for a
// random dataset the estimated quantile must be within 1/(2·latSub) +
// rounding of the true order statistic.
func TestLatencyHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var h LatencyHist
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~9 decades, the shape of real latencies.
		v := int64(math.Exp(rng.Float64() * 20))
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(vals))))
		truth := vals[rank-1]
		got := h.quantile(q)
		relErr := math.Abs(float64(got)-float64(truth)) / float64(truth)
		if relErr > 1.0/(2*latSub)+0.01 {
			t.Fatalf("q=%v: got %d truth %d relErr %.4f > %.4f", q, got, truth, relErr, 1.0/(2*latSub)+0.01)
		}
	}
	// Degenerate inputs.
	if h.quantile(math.NaN()) != 0 {
		t.Fatal("NaN quantile must be 0")
	}
	if got := h.quantile(-1); got != h.quantile(0) {
		t.Fatalf("q<0 must clamp: %d vs %d", got, h.quantile(0))
	}
	var empty *LatencyHist
	empty.Observe(1) // no-op, must not panic
	if empty.quantile(0.5) != 0 || empty.Snapshot().Count != 0 {
		t.Fatal("nil hist must answer zeros")
	}
}

// TestLatencyHistConcurrent hammers one histogram from many
// goroutines; run under -race this is the lock-free-correctness test,
// and the final aggregate totals must be exact.
func TestLatencyHistConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 10000
	var h LatencyHist
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(rng.Int63n(1 << 30))
				if i%1000 == 0 {
					_ = h.quantile(0.99) // concurrent reads must be safe
					_ = h.Snapshot()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", snap.Count, workers*perWorker)
	}
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
	if snap.Min < 0 || snap.Max >= 1<<30 {
		t.Fatalf("min/max out of range: %d %d", snap.Min, snap.Max)
	}
}

// TestLatencyHistMean sanity-checks sum bookkeeping through the
// registry accessor and snapshot plumbing.
func TestLatencyHistRegistry(t *testing.T) {
	r := NewRegistry()
	l := r.Latency("x.ns")
	for i := int64(1); i <= 100; i++ {
		l.Observe(i)
	}
	if same := r.Latency("x.ns"); same != l {
		t.Fatal("Latency must return the shared instrument")
	}
	snap := r.Snapshot()
	ls, ok := snap.Latencies["x.ns"]
	if !ok {
		t.Fatal("snapshot missing latency plane")
	}
	if ls.Count != 100 || ls.Sum != 5050 || ls.Min != 1 || ls.Max != 100 {
		t.Fatalf("bad snapshot %+v", ls)
	}
	if ls.P50 < 40 || ls.P50 > 60 {
		t.Fatalf("p50 = %d, want ~50", ls.P50)
	}
	var nilReg *Registry
	if nilReg.Latency("y") != nil {
		t.Fatal("nil registry must hand out nil latency hist")
	}
}
