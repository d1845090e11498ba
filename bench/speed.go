package main

import (
	"math"
	"time"
)

// The reference box changes speed from second to second and from
// half-hour to half-hour: the same binary's serving latencies read 30%
// apart in two sets of ten runs an hour apart, and 2x apart over an
// afternoon. A pure-ALU loop does not see it (2% over the same runs);
// what moves is the cost of allocation and of handing work from one
// goroutine to another, which is what serving a request is made of. So a
// serving run times two reference operations of the harness's own, made
// of exactly that, in a round after every cycle, and reports its
// readings at reference speed: divided by how much slower than nominal
// the reference operations ran in the rounds either side of the cycle.
// Ten runs of each serving workload in a noisy spell spread 19% on
// average and 32% at worst as read (interquartile range over median),
// 13% and 31% divided by one slowdown per run, 10% and 22% by one per
// cycle. The batch workloads, whose tasks last milliseconds and are each
// read over dozens of passes, gain nothing from it and are reported as
// read. README.md has the tables.

// speedRefAllocUs and speedRefHandoffUs are the reference operations'
// nominal readings: their medians on the reference box in a calm spell.
const (
	speedRefAllocUs   = 100
	speedRefHandoffUs = 40
)

// speedNode is what refAlloc allocates.
type speedNode struct {
	k, v uint64
	next *speedNode
}

// speedometer times the two reference operations.
type speedometer struct {
	ping, pong     chan int
	done           chan struct{}
	state          uint64
	keep           map[uint64]*speedNode
	alloc, handoff []float64 // readings in microseconds
	rounds         []float64 // each round's slowdown
}

func newSpeedometer() *speedometer {
	s := &speedometer{ping: make(chan int), pong: make(chan int), done: make(chan struct{}), state: 88172645463325252}
	go func() {
		defer close(s.done)
		for v := range s.ping {
			s.pong <- v
		}
	}()
	return s
}

// stop ends the hand-off partner and waits for it.
func (s *speedometer) stop() {
	close(s.ping)
	<-s.done
}

// refAlloc builds a fresh map of 1500 small linked nodes.
func (s *speedometer) refAlloc() {
	m := map[uint64]*speedNode{}
	var head *speedNode
	x := s.state
	for i := 0; i < 1500; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		head = &speedNode{k: x, v: uint64(i), next: head}
		m[x&0xfff] = head
	}
	s.state, s.keep = x, m
}

// refHandoff passes a value to another goroutine and back 100 times.
func (s *speedometer) refHandoff() {
	for i := 0; i < 100; i++ {
		s.ping <- i
		<-s.pong
	}
}

// speedReadings is how many readings of each reference operation one
// round takes: about 6 ms in all.
const speedReadings = 40

// round takes one burst of readings of each reference operation, one
// operation after the other, so the collections the first sets off do
// not run into the second, and returns the round's slowdown: how much
// slower than nominal the two ran, as the geometric mean of the two
// median readings over their nominal values.
func (s *speedometer) round() float64 {
	burst := func(op func()) []float64 {
		out := make([]float64, speedReadings)
		for i := range out {
			start := time.Now()
			op()
			out[i] = usOf(time.Since(start))
		}
		return out
	}
	handoff, alloc := burst(s.refHandoff), burst(s.refAlloc)
	s.handoff, s.alloc = append(s.handoff, handoff...), append(s.alloc, alloc...)
	slow := math.Sqrt(median(alloc) / speedRefAllocUs * median(handoff) / speedRefHandoffUs)
	s.rounds = append(s.rounds, slow)
	return slow
}
