package netsim

import (
	"errors"
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
// checking the same property — no reachable output outside Q(I), and
// convergence to Q(I) at quiescence — plus the message conservation
// invariant after every run. ExploreSchedules enumerates adversarial
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
	// MaxEvents bounds each run; 0 scales with the network.
	MaxEvents int
	// Sink receives one explore.schedule event per run and an
	// explore.violation event on failure.
	Sink *obs.Sink
}

// SweepStats reports how much a sweep explored.
type SweepStats struct {
	// Runs counts event-driven runs executed (the fault-free baseline
	// included); Aborted counts runs cut short by a violation or an
	// error; Violations counts property breaks (at most 1 — the sweep
	// stops at the first).
	Runs, Aborted, Violations int
	// Events and SchedOps total the scheduler work across all runs.
	Events, SchedOps int
	// HeapMax is the deepest event queue any run saw.
	HeapMax int
	// Sim folds every run's simulation Metrics into one total.
	Sim transducer.Metrics
}

// Publish adds the stats into the registry (explore.*, sim.* and
// netsim.* vocabularies). Safe on a nil registry.
func (st SweepStats) Publish(reg *obs.Registry) {
	reg.Counter(obs.ExploreSchedules).Add(int64(st.Runs))
	reg.Counter(obs.ExploreAborted).Add(int64(st.Aborted))
	reg.Counter(obs.ExploreViolations).Add(int64(st.Violations))
	reg.Counter(obs.NetsimEvents).Add(int64(st.Events))
	reg.Counter(obs.NetsimSchedOps).Add(int64(st.SchedOps))
	reg.Gauge(obs.NetsimHeapMax).SetMax(int64(st.HeapMax))
	st.Sim.Publish(reg)
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
		if plan != nil && !plan.Empty() {
			label = fmt.Sprintf("%s faults[%s]", label, plan)
			s.SetFaults(plan)
		}
		out, err := s.Run()

		m := s.RunMetrics()
		stats.Runs++
		stats.Events += s.Events()
		stats.SchedOps += s.SchedOps()
		if s.HeapMax() > stats.HeapMax {
			stats.HeapMax = s.HeapMax()
		}
		stats.Sim.Merge(m)

		var v *transducer.ScheduleViolation
		switch {
		case errors.Is(err, transducer.ErrNoQuiescence):
			err = nil
			v = &transducer.ScheduleViolation{
				Kind: transducer.NoQuiescence, Schedule: label,
				Step: m.Transitions, Output: s.Output(), Want: want,
			}
		case err != nil:
			// A failed transition is no verdict on the schedule: the
			// error goes back to the caller as it is.
		case len(s.WrongFacts) > 0:
			bad := s.WrongFacts[0]
			v = &transducer.ScheduleViolation{
				Kind: transducer.WrongFact, Schedule: label,
				Step: m.Transitions, Bad: &bad, Output: s.Output(), Want: want,
			}
		case !out.Equal(want):
			v = &transducer.ScheduleViolation{
				Kind: transducer.Divergence, Schedule: label,
				Step: m.Transitions, Output: out, Want: want,
			}
		case !s.Conserved():
			err = fmt.Errorf("netsim: %s broke conservation: sent=%d delivered=%d buffered=%d held=%d inflight=%d dropped=%d",
				label, m.MessagesSent, m.MessagesDelivered, s.TotalBuffered(), s.TotalHeld(), s.Inflight(), m.MessagesDropped)
		}
		aborted := v != nil || err != nil
		if aborted {
			stats.Aborted++
		}
		if v != nil {
			stats.Violations++
		}
		if sink := opts.Sink; sink != nil {
			sink.Emit(obs.EvSchedule,
				obs.F("label", label),
				obs.F("transitions", m.Transitions),
				obs.F("sent", m.MessagesSent),
				obs.F("delivered", m.MessagesDelivered),
				obs.F("aborted", aborted))
			if v != nil {
				bad := ""
				if v.Bad != nil {
					bad = v.Bad.String()
				}
				sink.Emit(obs.EvViolation,
					obs.F("kind", v.Kind.String()),
					obs.F("schedule", v.Schedule),
					obs.F("step", v.Step),
					obs.F("bad", bad),
					obs.F("output", v.Output.Len()),
					obs.F("want", v.Want.Len()))
			}
		}
		return v, err
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
