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

import "repro/internal/fact"

// Event kinds, in pop-priority order at equal times: crashes fire
// first (they model the lockstep primitives' begin-of-attempt crash
// check), then arrivals (so a node activating at time t sees every
// message that arrived at t in one batch), then activations.
const (
	evCrash = iota
	evArrive
	evActivate
)

// event is one scheduled occurrence, as Sim pushes and pops it.
// Arrival events carry the message instance; the fact enters the
// recipient's inbox only when the event pops, so activations never see
// messages from their future.
type event struct {
	time int64
	kind uint8
	tie  uint64
	seq  uint64
	node int32
	// Arrival payload (evArrive only): the message fact as ids and how
	// many copies of it this delivery carries. A popped event's args are
	// its slab slot's, valid until the next push.
	rel  fact.ID
	args []fact.ID
	n    int
}

// evKey is what the heap orders: an event without its payload, which
// waits in the heap's slab under slot (evArrive only). At 40 bytes and
// pointer-free it is under half an event, and the heap array is never
// scanned by the collector.
type evKey struct {
	time int64
	tie  uint64
	seq  uint64
	node int32
	slot int32
	kind uint8
}

// before is the strict total order of the queue. seq is unique, so no
// two keys tie: whatever shape the heap has, it pops them in one order.
func (e *evKey) before(o *evKey) bool {
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

// FNV-64a's offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// tieHash computes the seeded tiebreak for an event: a pure function
// of the run seed and the event's identity, so equal-seed runs break
// same-time ties identically while different seeds explore different
// interleavings. It is FNV-64a over 21 bytes: seed and time big-endian
// in 8 bytes each, the node in 4, the kind in 1.
func tieHash(seed, time int64, node int32, kind uint8) uint64 {
	h := fnvMix(fnvOffset, uint64(seed), 8)
	h = fnvMix(h, uint64(time), 8)
	h = fnvMix(h, uint64(uint32(node)), 4)
	return fnvMix(h, uint64(kind), 1)
}

// fnvMix folds the low n bytes of v, most significant first, into h.
func fnvMix(h, v uint64, n int) uint64 {
	for i := n - 1; i >= 0; i-- {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// payload is an arrival's fact and copy count while it waits; a slot
// keeps its args storage for the arrivals that reuse it.
type payload struct {
	rel  fact.ID
	args []fact.ID
	n    int
}

// evHeap is a binary min-heap of event keys ordered by before, beside
// a slab of the waiting arrivals' payloads whose free slots are
// reused. Hand-rolled rather than container/heap to keep pops
// allocation-free and inline the comparison on the hot path; a sift
// moves a hole and writes the key once, where it lands.
type evHeap struct {
	ks   []evKey
	slab []payload
	free []int32
}

func (h *evHeap) len() int { return len(h.ks) }

func (h *evHeap) push(e event) {
	k := evKey{time: e.time, tie: e.tie, seq: e.seq, node: e.node, kind: e.kind}
	if e.kind == evArrive {
		if n := len(h.free); n > 0 {
			k.slot, h.free = h.free[n-1], h.free[:n-1]
		} else {
			k.slot = int32(len(h.slab))
			h.slab = append(h.slab, payload{})
		}
		p := &h.slab[k.slot]
		p.rel, p.args, p.n = e.rel, append(p.args[:0], e.args...), e.n
	}
	h.ks = append(h.ks, k)
	i := len(h.ks) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(&h.ks[p]) {
			break
		}
		h.ks[i] = h.ks[p]
		i = p
	}
	h.ks[i] = k
}

func (h *evHeap) pop() event {
	top := h.ks[0]
	last := len(h.ks) - 1
	k := h.ks[last]
	h.ks = h.ks[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.ks[r].before(&h.ks[c]) {
			c = r
		}
		if !h.ks[c].before(&k) {
			break
		}
		h.ks[i] = h.ks[c]
		i = c
	}
	if last > 0 {
		h.ks[i] = k
	}
	e := event{time: top.time, kind: top.kind, tie: top.tie, seq: top.seq, node: top.node}
	if top.kind == evArrive {
		p := &h.slab[top.slot]
		e.rel, e.args, e.n = p.rel, p.args, p.n
		h.free = append(h.free, top.slot)
	}
	return e
}
