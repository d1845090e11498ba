package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file is the registry's one distribution type: a fixed-bucket
// log-scale histogram with exact count/sum/min/max. It was built for
// the serving stack's per-op latencies — operators need tail
// quantiles — and also carries the span timers and the small-count
// distributions (batch sizes, queue depths), for which the exact
// aggregates are what is read.
//
// The layout is log-linear (the HdrHistogram idea at fixed, tiny
// size): latSub sub-buckets per power of two, so every bucket's width
// is at most lower/latSub — a recorded value is reconstructible to
// within 1/latSub relative error, and a quantile estimate (bucket
// midpoint) to within 1/(2·latSub). Bucket boundaries are a pure
// function of the value, never of the data. All updates are lock-free
// atomic adds, so concurrent Observe calls scale; a Snapshot is
// monotonic-consistent, which is all a telemetry scrape needs.
const (
	// latSubBits sets the resolution: 1<<latSubBits sub-buckets per
	// octave, i.e. at most 12.5% bucket width at 3 bits.
	latSubBits = 3
	latSub     = 1 << latSubBits
	// latOctaves bounds the covered range: values up to 2^(latOctaves+
	// latSubBits-1) nanoseconds (~1.2 hours) land in a real bucket,
	// larger ones in the overflow bucket.
	latOctaves = 40
	// latBuckets is the total bucket count: latSub linear buckets for
	// tiny values, latSub per octave after that, plus one overflow.
	latBuckets = latOctaves*latSub + 1
)

// latBucket maps a value to its bucket index. Negative values clamp
// to 0 (latency cannot be negative; a clamp beats a panic in a
// telemetry path).
func latBucket(v int64) int {
	if v < latSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // v >= 8, so o >= 3 >= latSubBits
	sub := int((v >> (uint(o) - latSubBits)) & (latSub - 1))
	idx := (o-latSubBits+1)*latSub + sub
	if idx >= latBuckets-1 {
		return latBuckets - 1 // overflow bucket
	}
	return idx
}

// latBound returns the inclusive lower bound of bucket idx. The
// bucket covers [latBound(idx), latBound(idx+1)); the overflow bucket
// covers [latBound(latBuckets-1), +Inf).
func latBound(idx int) int64 {
	if idx < latSub {
		return int64(idx)
	}
	o := uint(idx/latSub + latSubBits - 1)
	sub := int64(idx % latSub)
	return int64(1)<<o + sub<<(o-latSubBits)
}

// LatencyHist is a fixed-bucket log-scale histogram. The zero value
// is ready to use; a nil *LatencyHist ignores all observations (the
// disabled fast path, same contract as Counter/Gauge).
type LatencyHist struct {
	count atomic.Int64
	sum   atomic.Int64
	// minP1 holds min+1 so the zero value means "unset" even when the
	// true minimum is 0; max needs no bias because observations are
	// clamped non-negative and a real 0 maximum equals the zero value.
	minP1   atomic.Int64
	max     atomic.Int64
	buckets [latBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to 0. No-op on a
// nil histogram, small enough to inline: the disabled path is one
// branch.
func (h *LatencyHist) Observe(v int64) {
	if h != nil {
		h.observe(v)
	}
}

func (h *LatencyHist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[latBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.minP1.Load()
		if cur != 0 && cur <= v+1 || h.minP1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= v || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// minimum returns the smallest observed value (0 when empty).
func (h *LatencyHist) minimum() int64 {
	if p1 := h.minP1.Load(); p1 > 0 {
		return p1 - 1
	}
	return 0
}

// quantile estimates the q-quantile (0 <= q <= 1) as the midpoint of
// the bucket holding the q·count-th observation, clamped to the
// recorded min/max. The estimate is within 1/(2·latSub) (6.25%)
// relative error of the true order statistic for in-range values; the
// overflow bucket answers its lower bound. Returns 0 when empty, nil,
// or q is NaN.
func (h *LatencyHist) quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic we estimate.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < latBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		seen += n
		if seen < rank {
			continue
		}
		var est int64
		if i == latBuckets-1 {
			est = latBound(i) // overflow: the lower bound is all we know
		} else {
			est = (latBound(i) + latBound(i+1)) / 2
		}
		if min := h.minimum(); est < min {
			est = min
		}
		if max := h.max.Load(); est > max {
			est = max
		}
		return est
	}
	return h.max.Load() // racing Observe moved count past the buckets read
}

// LatencyBucket is one non-empty bucket of a snapshot: Le is the
// exclusive upper bound (inclusive for Prometheus's cumulative
// rendering purposes), Count the observations at or below it is
// derived cumulatively by consumers.
type LatencyBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// LatencySnapshot is the JSON-marshalable summary of a LatencyHist:
// aggregate stats, estimated quantiles, and the non-empty buckets
// (per-bucket counts, not cumulative).
type LatencySnapshot struct {
	Count   int64           `json:"count"`
	Sum     int64           `json:"sum"`
	Min     int64           `json:"min"`
	Max     int64           `json:"max"`
	P50     int64           `json:"p50"`
	P90     int64           `json:"p90"`
	P99     int64           `json:"p99"`
	P999    int64           `json:"p999"`
	Buckets []LatencyBucket `json:"-"`
}

// Snapshot summarizes the histogram. Safe on nil (zero snapshot).
func (h *LatencyHist) Snapshot() LatencySnapshot {
	if h == nil {
		return LatencySnapshot{}
	}
	s := LatencySnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.minimum(),
		Max:   h.max.Load(),
		P50:   h.quantile(0.50),
		P90:   h.quantile(0.90),
		P99:   h.quantile(0.99),
		P999:  h.quantile(0.999),
	}
	for i := 0; i < latBuckets; i++ {
		if n := h.buckets[i].Load(); n != 0 {
			le := int64(math.MaxInt64)
			if i < latBuckets-1 {
				le = latBound(i+1) - 1
			}
			s.Buckets = append(s.Buckets, LatencyBucket{Le: le, Count: n})
		}
	}
	return s
}
