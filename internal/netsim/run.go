package netsim

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/transducer"
)

// This file is the event-driven scheduler. The run is a discrete
// event simulation over logical time:
//
//   - An activation event makes a node take one transition, delivering
//     its whole inbox. A node is re-activated at time+1 only when the
//     transition changed something (state or sends) — an unchanged
//     heartbeat is a deterministic no-op forever until a new arrival,
//     so sleeping it is sound. Idle nodes therefore cost nothing.
//   - Sends become arrival events at time + latency + fault hold; the
//     fact enters the recipient's inbox when the arrival pops, and the
//     arrival wakes the recipient at that same time. Arrivals order
//     before activations at equal times, so a node activating at t
//     sees every time-t arrival as one batch.
//   - Fault-plan crashes still ahead of the machine's clock are
//     pre-scheduled as crash events (logical time is that clock), so a
//     late crash keeps the queue nonempty until it has played out;
//     stall windows reschedule the activation to the window's end.
//
// An empty queue is quiescence: no activation pending means every node
// is asleep with an empty inbox and nothing in flight.

// DefaultMaxEventsPerNode scales the event bound to the network.
const DefaultMaxEventsPerNode = 500

// maxEvents resolves the configured event bound.
func (s *Sim) maxEvents() int {
	if s.opts.MaxEvents > 0 {
		return s.opts.MaxEvents
	}
	return 10000 + DefaultMaxEventsPerNode*len(s.Net)
}

// push schedules an event, stamping the deterministic tiebreak.
func (s *Sim) push(e event) {
	e.tie = tieHash(s.opts.Seed, e.time, e.node, e.kind)
	e.seq = s.seq
	s.seq++
	s.heap.push(e)
	if s.heap.len() > s.heapMax {
		s.heapMax = s.heap.len()
	}
}

// wake ensures node i has an activation scheduled no later than at.
func (s *Sim) wake(i int, at int64) {
	if s.pending[i] >= 0 && s.pending[i] <= at {
		return
	}
	s.pending[i] = at
	s.push(event{time: at, kind: evActivate, node: int32(i)})
}

// silentStart reports whether nodes with empty input fragments can
// skip their initial activation. In a model with no system relations
// at all, every empty-fragment node starts bisimilar: one probe
// transition on scratch state decides for all of them. With Id (or
// any other system relation) visible, nodes are distinguishable and
// each must probe for itself.
func (s *Sim) silentStart() bool {
	if s.Mod.ShowId || s.Mod.ShowAll || s.Mod.ShowMyAdom || s.Mod.ShowPolicy {
		return false
	}
	probe := transducer.Stepper{Net: s.Net, Trans: s.Trans, Pol: s.Pol, Mod: s.Mod}
	empty := fact.NewInstance()
	res, err := probe.Step(s.Net[0], empty, fact.NewInstance(), empty)
	if err != nil {
		return false
	}
	return !res.Changed && res.Sent.Empty()
}

// arrive schedules copies of f for node to, and is the placer every
// activation hands the machine: a routed send lands after the link's
// latency plus the fault plan's hold.
func (s *Sim) arrive(from, to int, f fact.Fact, copies, hold int) {
	s.push(event{time: s.now + s.latency(from, to) + int64(hold), kind: evArrive, node: int32(to), f: f, n: copies})
}

// Run drives the network to quiescence on the event scheduler and
// returns out(R). The same seed yields the same event sequence, the
// same event stream on the tracer, and the same output. Logical time is
// the machine's one fault clock: Run starts at Clock(), so a machine
// stepped in lockstep first (or run before) replays no crash it has
// already been through.
func (s *Sim) Run() (*fact.Instance, error) {
	s.now = int64(s.Clock())
	// Pre-schedule the fault plan's crashes still ahead of the clock;
	// dup/delay/partition decisions apply per send, stalls per
	// activation.
	if plan := s.Faults(); plan != nil {
		for _, c := range plan.Crashes {
			if int64(c.At) <= s.now {
				continue
			}
			for j, x := range s.Net {
				if x == c.Node {
					s.push(event{time: int64(c.At), kind: evCrash, node: int32(j)})
				}
			}
		}
	}
	// Lockstep-mode holds become arrivals at their release times.
	s.TakeHeld(func(to int, f fact.Fact, n, release int) {
		s.push(event{time: int64(release), kind: evArrive, node: int32(to), f: f, n: n})
	})
	// Initial activations: every node whose fragment or inbox is
	// nonempty, plus — unless a probe shows empty-fragment nodes are
	// silent — everyone else.
	silent := s.silentStart()
	for i, x := range s.Net {
		if !silent || s.Buffered(x) > 0 || s.LocalSize(x) > 0 {
			s.wake(i, s.now)
		}
	}

	bound := s.maxEvents()
	for s.heap.len() > 0 {
		if s.events >= bound {
			return nil, fmt.Errorf("%w (maxEvents=%d)", transducer.ErrNoQuiescence, bound)
		}
		e := s.heap.pop()
		s.events++
		s.now = e.time
		i := int(e.node)
		switch e.kind {
		case evArrive:
			s.Arrive(i, e.f, e.n)
			s.wake(i, e.time)
		case evCrash:
			// The restarted node wakes to recover from its refilled
			// inbox.
			s.CrashAt(i, int(e.time))
			s.wake(i, e.time)
		case evActivate:
			if s.pending[i] != e.time {
				continue // superseded by an earlier wake
			}
			s.pending[i] = -1
			if err := s.activate(i); err != nil {
				return nil, err
			}
		}
	}
	out := s.Output()
	emitNetsimQuiesce(s.Tracer(), s.now, s.events, s.schedOps, out.Len())
	return out, nil
}

// emitNetsimQuiesce is the single construction site for the
// netsim.quiesce event kind (nil-tracer safe, like the transducer emit
// helpers).
func emitNetsimQuiesce(tracer *obs.Tracer, time int64, events, schedOps, out int) {
	if tracer == nil {
		return
	}
	tracer.Emit(obs.EvNetsimQuiesce,
		obs.F("time", int(time)),
		obs.F("events", events),
		obs.F("sched_ops", schedOps),
		obs.F("out", out))
}

// activate charges one scheduler operation and asks the machine for a
// whole-inbox transition of node i, then decides the next wake: the
// end of the stall window that swallowed the activation, or one tick
// on when something changed.
func (s *Sim) activate(i int) error {
	s.schedOps++
	changed, stalled, err := s.DeliverAt(i, int(s.now), s.arrive)
	switch {
	case err != nil:
		return err
	case stalled:
		// Retry when the last stall window covering this time ends.
		end := s.now
		for _, st := range s.Faults().Stalls {
			if st.Node == s.Net[i] && s.now >= int64(st.From) && s.now < int64(st.To) && int64(st.To) > end {
				end = int64(st.To)
			}
		}
		s.wake(i, end)
	case changed:
		s.wake(i, s.now+1)
	}
	return nil
}

// PublishTo adds the run's counters into the registry: the shared
// sim.* vocabulary plus the netsim.* scheduler story. Safe on nil.
func (s *Sim) PublishTo(reg *obs.Registry) {
	s.Metrics.Publish(reg)
	reg.Counter(obs.NetsimEvents).Add(int64(s.events))
	reg.Counter(obs.NetsimSchedOps).Add(int64(s.schedOps))
	if g := reg.Gauge(obs.NetsimHeapMax); g != nil {
		g.Set(int64(s.heapMax))
	}
	if g := reg.Gauge(obs.NetsimQuiesceTime); g != nil {
		g.Set(s.now)
	}
}
