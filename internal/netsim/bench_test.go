package netsim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/netsim"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// The benchmark workload is the sparse-activity configuration the
// event scheduler is built for: a handful of input facts scattered by
// hash over 10^2–10^4 nodes, gossip over topology-neighbor links, and
// a long stall window on one node so the network spends most of
// logical time idle. The dense schedule (RunToQuiescence) pays one
// scheduler operation per node per round until the window closes; the
// event schedule of the same machine pays only for pending work. Rows report events/op,
// schedops/op, events/s and heapmax so one run captures both
// throughput and the scheduler-operation gap.

// stallHorizon scales the idle window with the network so the
// tick/event sched-ops ratio is comparable across node counts.
const stallHorizon = 250

func benchInput() *fact.Instance {
	return fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) E(d,a) E(b,e)`)
}

func benchSim(b *testing.B, topo *generate.Topology) *netsim.Sim {
	b.Helper()
	net := netsim.NetworkOf(topo)
	tr := core.MustBuild(core.Gossip, queries.TC())
	s, err := netsim.New(net, tr, transducer.HashPolicy(net), core.Gossip.RequiredModel(), benchInput(),
		netsim.Options{Topo: topo, Routing: netsim.RouteNeighbors, MaxEvents: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	s.SetFaults(&transducer.FaultPlan{Stalls: []transducer.Stall{
		{Node: netsim.NetworkOf(topo)[0], From: 5, To: stallHorizon * topo.Len()},
	}})
	return s
}

// BenchmarkNetsimEvent sweeps the event-driven scheduler across node
// counts (10^2, 10^3, 10^4).
func BenchmarkNetsimEvent(b *testing.B) {
	for _, c := range []struct {
		kind generate.TopoKind
		n    int
	}{
		{generate.TopoRing, 100},
		{generate.TopoRing, 1000},
		{generate.TopoRing, 10000},
		{generate.TopoPowerLaw, 10000},
	} {
		b.Run(fmt.Sprintf("%v-n%d", c.kind, c.n), func(b *testing.B) {
			topo := generate.MustTopology(c.kind, c.n, 5)
			var events, schedOps, heapMax int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := benchSim(b, topo)
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
				events += s.Events()
				schedOps += s.SchedOps()
				if s.HeapMax() > heapMax {
					heapMax = s.HeapMax()
				}
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(schedOps)/float64(b.N), "schedops/op")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(heapMax), "heapmax")
		})
	}
}

// BenchmarkNetsimTick is the dense schedule on the identical
// workload: RunToQuiescence sweeps every node every round until the
// stall window closes — Clock() counts the visits — so schedops/op
// here vs the event rows above is the scheduler-operation gap (>= 10x
// at 10^3 nodes is the PR-10 acceptance gate). The 10^4 row is
// omitted: the sweep's schedops scale as horizon ~ 250 * n, which at
// 10^4 nodes is tens of millions of no-op visits per run.
func BenchmarkNetsimTick(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("ring-n%d", n), func(b *testing.B) {
			topo := generate.MustTopology(generate.TopoRing, n, 5)
			var schedOps int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := benchSim(b, topo)
				if _, err := s.RunToQuiescence(1 << 30); err != nil {
					b.Fatal(err)
				}
				schedOps += s.Clock()
			}
			b.ReportMetric(float64(schedOps)/float64(b.N), "schedops/op")
		})
	}
}
