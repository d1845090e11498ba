package main

import (
	"math"
	"sort"
)

// summary is the n/min/median/max of one metric's repetitions: what
// every report row carries, so a reader sees the noise next to the
// number.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Min: s[0], Median: medianSorted(s), Max: s[len(s)-1]}
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(xs []float64) float64 { return summarize(xs).Median }

// samples is a pool of exact latency observations in nanoseconds.
// Percentiles are read off the sorted pool, never off histogram
// buckets.
type samples []int64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the q-quantile (nearest rank) of a sorted pool and
// how many samples lie strictly beyond that rank.
func (s samples) quantile(q float64) (ns int64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - 1 - rank
}

// us renders a sorted pool's q-quantile in microseconds.
func (s samples) us(q float64) float64 {
	ns, _ := s.quantile(q)
	return float64(ns) / 1e3
}

// minBeyond is how many samples must lie beyond a percentile for it to
// mean anything: the choosing-metrics rule.
const minBeyond = 10

// calm is the time a batch task is read at over its passes: the lower
// quartile. On the reference box interference only ever slows a reading
// down, and does so most of the time, so the median reads the
// interference; the best reading is steadier than the median but is an
// extreme, and the quartile is steadier than both: over two sets of ten
// runs of each batch workload, the fifteen pairs of workload and time
// metric spread (interquartile range over median) 11.8% on average and
// 23% at worst built from each task's best time, 10.0% and 25% from its
// median, 8.9% and 16% from its lower quartile. The report prints n,
// min, median and max next to every value, so the interference stays
// visible.
func calm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/4]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
