package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fact"
)

// TestTieHashIsFNV: the inline tiebreak is FNV-64a over the 21 bytes
// the event order has always hashed — seed, time, node, kind,
// big-endian — so every trace keeps its order.
func TestTieHashIsFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		seed, time, node, kind := rng.Int63()-rng.Int63(), rng.Int63n(1<<40), int32(rng.Uint32()), uint8(rng.Intn(3))
		var buf [21]byte
		binary.BigEndian.PutUint64(buf[0:], uint64(seed))
		binary.BigEndian.PutUint64(buf[8:], uint64(time))
		binary.BigEndian.PutUint32(buf[16:], uint32(node))
		buf[20] = kind
		h := fnv.New64a()
		h.Write(buf[:])
		if got, want := tieHash(seed, time, node, kind), h.Sum64(); got != want {
			t.Fatalf("tieHash(%d, %d, %d, %d) = %x, FNV-64a %x", seed, time, node, kind, got, want)
		}
	}
}

// TestHeapPopsInOrder: interleaved pushes and pops come out in the
// order before sorts them, each arrival with the payload it was pushed
// with, and the payload slab reuses freed slots: it is never larger
// than the most arrivals that waited at once.
func TestHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h evHeap
	var waiting []event // pushed, not yet popped
	arrivals, peak := 0, 0
	for seq := uint64(0); seq < 5000; seq++ {
		if h.len() == 0 || rng.Intn(5) < 3 {
			e := event{time: rng.Int63n(20), kind: uint8(rng.Intn(3)), tie: uint64(rng.Intn(4)), seq: seq, node: int32(rng.Intn(8))}
			if e.kind == evArrive {
				f := fact.New("M", fact.Value(rune('a'+rng.Intn(26))))
				e.rel, e.args, e.n = f.RelID(), f.ArgIDs(), 1+rng.Intn(3)
				arrivals++
				peak = max(peak, arrivals)
			}
			h.push(e)
			waiting = append(waiting, e)
			continue
		}
		first := slices.MinFunc(waiting, func(a, b event) int {
			ka, kb := evKey{time: a.time, tie: a.tie, seq: a.seq, kind: a.kind}, evKey{time: b.time, tie: b.tie, seq: b.seq, kind: b.kind}
			if ka.before(&kb) {
				return -1
			}
			return 1
		})
		got := h.pop()
		if got.seq != first.seq || got.time != first.time || got.kind != first.kind || got.node != first.node || got.n != first.n || got.rel != first.rel || !slices.Equal(got.args, first.args) {
			t.Fatalf("popped %+v, want %+v", got, first)
		}
		if got.kind == evArrive {
			arrivals--
		}
		waiting = slices.DeleteFunc(waiting, func(e event) bool { return e.seq == first.seq })
	}
	if len(h.slab) != peak || len(h.slab)-len(h.free) != arrivals {
		t.Fatalf("slab of %d slots, %d free, for %d waiting arrivals (at most %d at once)", len(h.slab), len(h.free), arrivals, peak)
	}
}
