// Package netsim is the event-driven large-network simulator: the
// one transducer machine (transducer.Simulation holds the
// configuration and applies every transition, send, crash and stall)
// driven by a seeded priority queue of events instead of a
// round-robin walk over all nodes. A node costs scheduler work only
// when it has something to do — an arrival, a scheduled fault, or a
// self-wake after a state change — which is what makes schedule
// exploration feasible at 10^3–10^4 nodes on the sparse topologies of
// internal/generate.
//
// Determinism: the queue orders events by (logical time, kind rank,
// tiebreak hash, insertion sequence). The tiebreak hash is a pure
// FNV-64a function of (seed, time, node, kind) and the insertion
// sequence is itself a deterministic function of the run, so two runs
// with equal seeds pop events in exactly the same order and produce
// byte-identical event streams.
package netsim

import (
	"hash/fnv"

	"repro/internal/fact"
)

// Event kinds, in pop-priority order at equal times: crashes fire
// first (they model the lockstep primitives' begin-of-attempt crash
// check), then arrivals (so a node activating at time t sees every
// message that arrived at t in one batch), then activations.
const (
	evCrash = iota
	evArrive
	evActivate
)

// event is one scheduled occurrence. Arrival events carry the message
// instance; the fact enters the recipient's inbox only when the event
// pops, so activations never see messages from their future.
type event struct {
	time int64
	kind uint8
	tie  uint64
	seq  uint64
	node int32
	// Arrival payload (evArrive only): the message fact and how many
	// copies of it this delivery carries.
	f fact.Fact
	n int
}

// before is the strict total order of the queue.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	if e.tie != o.tie {
		return e.tie < o.tie
	}
	return e.seq < o.seq
}

// tieHash computes the seeded tiebreak for an event: a pure function
// of the run seed and the event's identity, so equal-seed runs break
// same-time ties identically while different seeds explore different
// interleavings.
func tieHash(seed, time int64, node int32, kind uint8) uint64 {
	h := fnv.New64a()
	var buf [21]byte
	putInt64(buf[0:8], uint64(seed))
	putInt64(buf[8:16], uint64(time))
	putInt64(buf[16:20], uint64(uint32(node)))
	buf[20] = kind
	h.Write(buf[:])
	return h.Sum64()
}

// putInt64 writes v big-endian into b (len(b) >= 8 for the first two
// calls, 4 bytes used for the node).
func putInt64(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// evHeap is a binary min-heap of events ordered by before. Hand-rolled
// rather than container/heap to keep pops allocation-free and inline
// the comparison on the hot path.
type evHeap struct {
	es []event
}

func (h *evHeap) len() int { return len(h.es) }

func (h *evHeap) push(e event) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.es[i].before(&h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *evHeap) pop() event {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && h.es[r].before(&h.es[l]) {
			c = r
		}
		if !h.es[c].before(&h.es[i]) {
			break
		}
		h.es[i], h.es[c] = h.es[c], h.es[i]
		i = c
	}
	return top
}
