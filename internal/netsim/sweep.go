package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/obs"
	"repro/internal/transducer"
)

// This file is the large-network counterpart of the transducer
// package's ExploreSchedules: a seeded sweep of event-driven runs over
// one generated topology, each under a topology-aware fault plan,
// judged by the same verdict (transducer.ExploreStats.Record) — no
// reachable output outside Q(I), convergence to Q(I) at quiescence,
// and message conservation. ExploreSchedules enumerates adversarial
// schedules on small networks; this sweep varies the event queue's
// tiebreak seed and the fault plan instead, which is the scheduling
// nondeterminism that remains meaningful at 10^3–10^4 nodes.

// SweepOptions tunes a topology sweep.
type SweepOptions struct {
	// Seeds is how many seeded faulty runs to execute (default 20).
	Seeds int
	// BaseSeed is the first seed (default 1); run k uses BaseSeed+k.
	BaseSeed int64
	// Faults bounds the per-seed fault plans. The zero value injects
	// no faults (pure tiebreak-seed variation).
	Faults transducer.FaultConfig
	// MaxEvents bounds each run's activations and crashes; 0 scales
	// with the network.
	MaxEvents int
	// Tracer receives one explore.schedule event per run and an
	// explore.violation event on failure.
	Tracer *obs.Tracer
}

// SweepStats reports how much a sweep explored: the explorer's stats
// (a run is a schedule) plus the event scheduler's work.
type SweepStats struct {
	transducer.ExploreStats
	// Events and SchedOps total the scheduler work across all runs.
	Events, SchedOps int
	// HeapMax is the deepest event queue any run saw.
	HeapMax int
}

// Publish adds the stats into the registry (explore.*, sim.* and
// netsim.* vocabularies). Safe on a nil registry.
func (st SweepStats) Publish(reg *obs.Registry) {
	st.ExploreStats.Publish(reg)
	reg.Counter(obs.NetsimEvents).Add(int64(st.Events))
	reg.Counter(obs.NetsimSchedOps).Add(int64(st.SchedOps))
	reg.Gauge(obs.NetsimHeapMax).SetMax(int64(st.HeapMax))
}

// TopologyFaultPlan derives a seeded fault plan whose partitions
// respect the topology: random duplication/delay/stall/crash placement
// from the transducer generator, plus cfg.Partitions topology-aware
// cuts (a whole WAN cluster, or a contiguous arc elsewhere) in seeded
// windows. Reproducible from (topo, net, seed, cfg) alone.
func TopologyFaultPlan(topo *generate.Topology, net transducer.Network, seed int64, cfg transducer.FaultConfig) *transducer.FaultPlan {
	cuts := cfg.Partitions
	cfg.Partitions = 0
	p := transducer.RandomFaultPlan(net, seed, cfg)
	if topo == nil || cuts == 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed ^ 0x70b0))
	win := cfg.Window
	if win <= 0 {
		win = 30
	}
	for i := 0; i < cuts; i++ {
		group := topo.Cut(rng.Int63())
		if len(group) == 0 || len(group) >= topo.Len() {
			continue
		}
		from := 1 + rng.Intn(win)
		p.Partitions = append(p.Partitions, transducer.Partition{
			From:  from,
			To:    from + 1 + rng.Intn(win/2+1),
			Group: group,
		})
	}
	return p
}

// Sweep runs the event-driven explorer on one topology: a fault-free
// baseline run, then opts.Seeds seeded runs under topology-aware fault
// plans, each checked for soundness (no output fact outside want),
// convergence (final output equals want) and message conservation. It
// returns the first violation found, or nil when every run converges.
func Sweep(topo *generate.Topology, routing Routing, t *transducer.Transducer, pol transducer.Policy, mod transducer.Model, input, want *fact.Instance, opts SweepOptions) (*transducer.ScheduleViolation, SweepStats, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 20
	}
	if opts.BaseSeed == 0 {
		opts.BaseSeed = 1
	}
	net := NetworkOf(topo)
	var stats SweepStats

	oneRun := func(label string, seed int64, plan *transducer.FaultPlan) (*transducer.ScheduleViolation, error) {
		s, err := New(net, t, pol, mod, input, Options{
			Topo:      topo,
			Routing:   routing,
			Seed:      seed,
			MaxEvents: opts.MaxEvents,
			Want:      want,
		})
		if err != nil {
			return nil, err
		}
		if !plan.Empty() {
			label = fmt.Sprintf("%s faults[%s]", label, plan)
			s.SetFaults(plan)
		}
		out, err := s.Run()
		stats.Events += s.Events()
		stats.SchedOps += s.SchedOps()
		stats.HeapMax = max(stats.HeapMax, s.HeapMax())
		return stats.Record(s.Simulation, label, out, err, opts.Tracer)
	}

	// Fault-free baseline on the default tiebreak seed.
	if v, err := oneRun("event-fair", opts.BaseSeed, nil); v != nil || err != nil {
		return v, stats, err
	}
	for k := 0; k < opts.Seeds; k++ {
		seed := opts.BaseSeed + int64(k)
		plan := TopologyFaultPlan(topo, net, seed, opts.Faults)
		if v, err := oneRun(fmt.Sprintf("event-seed:%d", seed), seed, plan); v != nil || err != nil {
			return v, stats, err
		}
	}
	return nil, stats, nil
}
