package netsim_test

import (
	"runtime"
	"testing"

	"repro/internal/generate"
	"repro/internal/netsim"
)

// TestRingRunCounters pins two counters of one seeded 16-node gossip
// ring, which netsim-ring's throughput and live_heap_mb are made of:
// Sim.Run allocates exactly ringAllocs objects, and the finished Sim,
// with its node states, inboxes and sent logs, keeps at most
// ringRetained bytes of heap. Beside each pin is the figure from before
// small fact columns stopped keeping a hash index and the event heap
// stopped holding whole events.
func TestRingRunCounters(t *testing.T) {
	const (
		ringAllocs, parentAllocs     = 863, 997
		ringRetained, parentRetained = 35000, 43000 // bytes; this version reads 31700
	)
	topo := generate.MustTopology(generate.TopoRing, 16, 5)
	build := func() *netsim.Sim { return buildTopoSim(t, topo, sixGraph(), netsim.Options{Seed: 5}) }

	const runs = 10
	sims := make([]*netsim.Sim, runs+1)
	for k := range sims {
		sims[k] = build()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := sims[next].Run(); err != nil {
			panic(err)
		}
		next++
	})
	if allocs != ringAllocs {
		t.Errorf("16-node ring: Sim.Run allocates %v objects for %d delivered messages, pinned at %d (parent: %d)",
			allocs, sims[0].RunMetrics().MessagesDelivered, ringAllocs, parentAllocs)
	}
	sims = nil

	// What the finished Sim holds is what a collection frees once it is
	// dropped; the least of three readings, as another object of the
	// test binary's may die between the two.
	retained := int64(-1)
	for range 3 {
		s := build()
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var held, dropped runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&held)
		runtime.KeepAlive(s)
		runtime.GC()
		runtime.ReadMemStats(&dropped)
		if d := int64(held.HeapAlloc) - int64(dropped.HeapAlloc); retained < 0 || d < retained {
			retained = d
		}
	}
	if retained > ringRetained {
		t.Errorf("16-node ring: a finished Sim retains %d bytes, pinned at <= %d (parent: %d)", retained, ringRetained, parentRetained)
	}
}
