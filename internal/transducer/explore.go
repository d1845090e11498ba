package transducer

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/fact"
	"repro/internal/obs"
)

// This file implements a small exhaustive run explorer: a
// model-checker-style sweep over all schedules of bounded depth, where
// each step activates any node as either a heartbeat or a full-buffer
// delivery. Runs in the paper are arbitrary interleavings with
// arbitrary submultiset delivery; heartbeat/deliver-all scheduling is
// a strict subset, but it already exercises the races that matter for
// the safety property checked here (no wrong outputs in any reachable
// configuration).
//
// Both explorers test soundness the one way the machine does: a
// Simulation with Want set appends every new output fact outside it
// to WrongFacts (sim.go, transition), and an explorer reads that.

// Explore enumerates every schedule of at most depth steps from the
// start configuration of (net, t, pol, mod) on input, with want as the
// machine's oracle. It returns the first schedule that reaches an
// output fact outside want as a WrongFact violation (its Schedule the
// choices, space-separated), or nil if all reachable outputs are
// sound. The number of explored runs is (2·|N|)^depth; keep depth and
// the network small.
func Explore(net Network, t *Transducer, pol Policy, mod Model, input, want *fact.Instance, depth int) (*ScheduleViolation, error) {
	type choice struct {
		node    NodeID
		deliver bool
	}
	var choices []choice
	for _, x := range net {
		choices = append(choices, choice{x, false}, choice{x, true})
	}

	var schedule []string
	var rec func(s *Simulation, remaining int) (*ScheduleViolation, error)
	rec = func(s *Simulation, remaining int) (*ScheduleViolation, error) {
		if len(s.WrongFacts) > 0 {
			return wrongFact(s, strings.Join(schedule, " ")), nil
		}
		if remaining == 0 {
			return nil, nil
		}
		for _, c := range choices {
			branch := s.clone()
			var err error
			label := fmt.Sprintf("%s:hb", c.node)
			if c.deliver {
				label = fmt.Sprintf("%s:dl", c.node)
				_, err = branch.Deliver(c.node)
			} else {
				_, err = branch.Heartbeat(c.node)
			}
			if err != nil {
				return nil, err
			}
			schedule = append(schedule, label)
			v, err := rec(branch, remaining-1)
			schedule = schedule[:len(schedule)-1]
			if err != nil || v != nil {
				return v, err
			}
		}
		return nil, nil
	}

	start, err := NewSimulation(net, t, pol, mod, input)
	if err != nil {
		return nil, err
	}
	start.Want = want
	return rec(start, depth)
}

// ----------------------------------------------------------------------
// Adversarial schedule exploration.
//
// Explore above enumerates every heartbeat/deliver-all schedule, which
// is exhaustive but shallow. ExploreSchedules goes the other way: it
// runs a curated family of deep adversarial schedules — per-node
// starvation until a fairness deadline, greedy adversaries built
// around fresh active-domain values (the pattern behind the known
// out-of-class failures of the F2.8–F2.10 strategies), and a sweep of
// seeded random schedules under random fault plans — checking after
// every transition that the output stays inside Q(I) and at quiescence
// that it equals Q(I).

// ViolationKind classifies how a schedule broke "Π computes Q".
type ViolationKind int

const (
	// WrongFact: a reachable output contained a fact outside Q(I).
	WrongFact ViolationKind = iota
	// Divergence: the run quiesced on an output different from Q(I).
	Divergence
	// NoQuiescence: the run did not stabilize within the round bound.
	NoQuiescence
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case WrongFact:
		return "wrong-fact"
	case Divergence:
		return "divergence"
	default:
		return "no-quiescence"
	}
}

// ScheduleViolation describes a schedule on which the network failed
// to compute Q.
type ScheduleViolation struct {
	Kind ViolationKind
	// Schedule identifies the failing schedule (and, for seeded runs,
	// the fault plan) well enough to replay it.
	Schedule string
	// Step is the transition count at which the violation surfaced.
	Step int
	// Bad is the offending output fact (WrongFact only).
	Bad *fact.Fact
	// Output and Want are the observed and expected network outputs.
	Output, Want *fact.Instance
}

// Error renders the violation.
func (v *ScheduleViolation) Error() string {
	switch v.Kind {
	case WrongFact:
		return fmt.Sprintf("transducer: schedule %s produced out-of-answer fact %v at step %d", v.Schedule, *v.Bad, v.Step)
	case Divergence:
		return fmt.Sprintf("transducer: schedule %s quiesced on %v, want %v", v.Schedule, v.Output, v.Want)
	default:
		return fmt.Sprintf("transducer: schedule %s did not quiesce (step %d)", v.Schedule, v.Step)
	}
}

// ExploreOptions tunes ExploreSchedules.
type ExploreOptions struct {
	// Seeds is how many seeded random fault schedules to run
	// (default 100).
	Seeds int
	// BaseSeed is the first seed (default 1); schedule k uses
	// BaseSeed+k.
	BaseSeed int64
	// Faults bounds the fault plans derived for the seeded schedules.
	// The zero value injects no faults (pure schedule randomization).
	Faults FaultConfig
	// MaxRounds bounds each run's fair drive (and each adversary's
	// prefix); Simulation.RoundBound reads it, picking its default for
	// 0 and adding each fault plan's horizon.
	MaxRounds int
	// SkipStarvation and SkipAdversary disable the deterministic
	// schedule families, leaving only the seed sweep.
	SkipStarvation bool
	SkipAdversary  bool
	// Tracer, when non-nil, receives one explore.schedule event per
	// schedule run (and an explore.violation event when a schedule
	// breaks the property). Per-transition simulation events are not
	// attached here — wire a tracer to an individual Simulation for that.
	Tracer *obs.Tracer
}

// ExploreStats reports how much was explored. Every schedule counts,
// including the one cut short by the first violation — partially
// explored schedules contribute their transitions and message flows.
type ExploreStats struct {
	// Schedules is the number of schedules run (complete or aborted).
	Schedules int
	// Aborted counts schedules cut short by a violation or an error.
	Aborted int
	// Violations counts schedules that broke the property (at most 1,
	// since exploration stops at the first violation).
	Violations int
	// Transitions is the total number of transitions across all
	// schedules, including partially-explored ones.
	Transitions int
	// Sim folds every explored schedule's simulation Metrics into one
	// total, so message flows (sent, delivered, dropped, ...) are
	// reported in the same vocabulary as single runs.
	Sim Metrics
}

// Publish adds the stats into the registry under the explore.* (and,
// via Sim, the sim.*) vocabulary of internal/obs names.go. Safe on a
// nil registry.
func (st ExploreStats) Publish(reg *obs.Registry) {
	reg.Counter(obs.ExploreSchedules).Add(int64(st.Schedules))
	reg.Counter(obs.ExploreAborted).Add(int64(st.Aborted))
	reg.Counter(obs.ExploreViolations).Add(int64(st.Violations))
	reg.Counter(obs.ExploreTransitions).Add(int64(st.Transitions))
	st.Sim.Publish(reg)
}

// ExploreSchedules searches the schedule space of (net, t, pol, mod)
// on input for a violation of "the network computes want": it runs the
// fair baseline, per-node starvation schedules, the greedy fresh-value
// adversaries, and opts.Seeds seeded random schedules under derived
// fault plans, returning the first violation found (nil if every
// explored schedule converges to want without ever leaving it).
func ExploreSchedules(net Network, t *Transducer, pol Policy, mod Model, input, want *fact.Instance, opts ExploreOptions) (*ScheduleViolation, ExploreStats, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 100
	}
	if opts.BaseSeed == 0 {
		opts.BaseSeed = 1
	}
	start, err := NewSimulation(net, t, pol, mod, input)
	if err != nil {
		return nil, ExploreStats{}, err
	}
	start.Want = want
	opts.MaxRounds = start.RoundBound(opts.MaxRounds)
	e := &explorer{start: start, opts: opts}

	// play runs one schedule unless an earlier one ended the search.
	var v *ScheduleViolation
	play := func(label string, plan *FaultPlan, prefix func(*Simulation) error) {
		if v == nil && err == nil {
			v, err = e.run(label, plan, prefix)
		}
	}
	play("fair", nil, nil)
	if !opts.SkipStarvation {
		for _, x := range net {
			play(fmt.Sprintf("starve:%s", x), nil, func(s *Simulation) error { return e.starve(s, x) })
		}
	}
	if !opts.SkipAdversary {
		play("adv-flood-fresh", nil, e.freshFlood)
		for _, x := range net {
			play(fmt.Sprintf("adv-starve-fresh:%s", x), nil, func(s *Simulation) error { return e.freshStarve(s, x) })
		}
	}
	for k := 0; k < opts.Seeds && v == nil && err == nil; k++ {
		seed := opts.BaseSeed + int64(k)
		play(fmt.Sprintf("seed:%d", seed), RandomFaultPlan(net, seed, opts.Faults), func(s *Simulation) error { return s.RandomPrefix(seed, 8*len(net)) })
	}
	return v, e.stats, err
}

// explorer carries the fixed exploration context.
type explorer struct {
	// start is the start configuration with Want set; every schedule
	// runs on a clone of it.
	start *Simulation
	opts  ExploreOptions
	stats ExploreStats
}

// run plays one schedule on a copy of the start configuration. A
// nonempty fault plan is installed first, named in the label and adds
// its horizon to the round bound; prefix (nil for none) takes the
// schedule's own steps and returns at an error or the first wrong
// fact; a fair drive takes the rest to quiescence; Record gives the
// verdict.
func (e *explorer) run(label string, plan *FaultPlan, prefix func(*Simulation) error) (*ScheduleViolation, error) {
	s := e.start.clone()
	if !plan.Empty() {
		label = fmt.Sprintf("%s faults[%s]", label, plan)
		s.SetFaults(plan)
	}
	rounds := s.RoundBound(e.opts.MaxRounds)
	var out *fact.Instance
	var err error
	if prefix != nil {
		err = prefix(s)
	}
	if err == nil && len(s.WrongFacts) == 0 {
		out, err = s.RunToQuiescence(rounds)
	}
	return e.stats.Record(s, label, out, err, e.opts.Tracer)
}

// Record is the one verdict on an explored run. s ran as schedule
// label with s.Want as its oracle and ended with (out, err): out(R) at
// quiescence, or the error that stopped it. Record names the run's
// violation — a run that did not quiesce, else the first wrong fact
// the machine appended, else a quiescent output other than Want —
// checks message conservation, folds the run into st, whether it
// completed, violated or failed, and emits explore.schedule (and
// explore.violation) on tracer. An error other than ErrNoQuiescence, or
// a broken conservation, comes back as the error. Both explorers call
// it: ExploreSchedules and netsim.Sweep.
func (st *ExploreStats) Record(s *Simulation, label string, out *fact.Instance, err error, tracer *obs.Tracer) (*ScheduleViolation, error) {
	m := s.Metrics
	var v *ScheduleViolation
	switch {
	case errors.Is(err, ErrNoQuiescence):
		err = nil
		v = &ScheduleViolation{Kind: NoQuiescence, Schedule: label, Step: m.Transitions, Output: s.Output(), Want: s.Want}
	case err != nil:
		// A failed transition is no verdict on the schedule: the error
		// goes back to the caller as it is.
	case len(s.WrongFacts) > 0:
		v = wrongFact(s, label)
	case !out.Equal(s.Want):
		v = &ScheduleViolation{Kind: Divergence, Schedule: label, Step: m.Transitions, Output: out, Want: s.Want}
	case !s.Conserved():
		err = fmt.Errorf("transducer: schedule %s broke conservation: sent=%d delivered=%d buffered=%d held=%d inflight=%d dropped=%d",
			label, m.MessagesSent, m.MessagesDelivered, s.TotalBuffered(), s.TotalHeld(), s.Inflight(), m.MessagesDropped)
	}

	st.Schedules++
	st.Transitions += m.Transitions
	st.Sim.Merge(m)
	aborted := v != nil || err != nil
	if aborted {
		st.Aborted++
	}
	if v != nil {
		st.Violations++
	}
	if tracer != nil {
		tracer.Emit(obs.EvSchedule,
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
			tracer.Emit(obs.EvViolation,
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

// wrongFact is the violation of a machine that has appended a wrong
// fact: the first one, at the transition that appended it.
func wrongFact(s *Simulation, schedule string) *ScheduleViolation {
	bad := s.WrongFacts[0]
	return &ScheduleViolation{Kind: WrongFact, Schedule: schedule, Step: s.WrongAt, Bad: &bad, Output: s.Output(), Want: s.Want}
}

// The schedule prefixes below step the machine and return at the
// first error or wrong fact; run drives whatever they leave fairly to
// quiescence.

// starve keeps the victim from taking any transition while the rest
// of the network runs round-robin to a fixed point — the victim's
// local facts stay invisible for the whole starvation phase. The
// fairness deadline then admits the victim and the run must still
// converge to want.
func (e *explorer) starve(s *Simulation, victim NodeID) error {
	for round := 0; round < e.opts.MaxRounds; round++ {
		progress := false
		for _, x := range s.Net {
			if x == victim {
				continue
			}
			changed, err := s.Deliver(x)
			if err != nil || len(s.WrongFacts) > 0 {
				return err
			}
			if changed {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return nil
}

// freshFlood is the greedy fresh-value adversary: at every step it
// delivers exactly ONE buffered fact — the one introducing the most
// values its recipient has never seen — so each node's active domain
// expands as far ahead of its data as any schedule allows. This is the
// single-fact generalization of the race behind premature outputs:
// a node that learns a value before the facts about it evaluates the
// query on an inflated, incomplete picture.
func (e *explorer) freshFlood(s *Simulation) error {
	budget := e.opts.MaxRounds * len(s.Net)
	for step := 0; step < budget; step++ {
		bestScore := 0
		var bestNode NodeID
		var bestFact fact.Fact
		for _, x := range s.Net {
			known := s.known(x)
			for _, f := range s.BufferedFacts(x) {
				if n := fact.Fresh(f, known); n > bestScore {
					bestScore, bestNode, bestFact = n, x, f
				}
			}
		}
		if bestScore == 0 {
			// No delivery introduces a fresh value; heartbeat everyone
			// once to let protocols emit, then retry or finish.
			progress := false
			for _, x := range s.Net {
				changed, err := s.Heartbeat(x)
				if err != nil || len(s.WrongFacts) > 0 {
					return err
				}
				if changed {
					progress = true
				}
			}
			if !progress {
				break
			}
			continue
		}
		if _, err := s.DeliverWhere(bestNode, bestFact.Equal); err != nil || len(s.WrongFacts) > 0 {
			return err
		}
	}
	return nil
}

// freshStarve is the dual adversary, aimed at one victim: every other
// node runs fairly, while the victim is delivered only messages whose
// values it already knows. Absence announcements, acknowledgments and
// data over the victim's current domain flow freely; anything
// mentioning a fresh value is withheld. A strategy that declares its
// picture of the input complete from such a confined domain emits its
// wrong facts here — this is the schedule shape behind the known
// out-of-class divergences of the absence and domain-request
// strategies. The fairness deadline then delivers everything.
func (e *explorer) freshStarve(s *Simulation, victim NodeID) error {
	for round := 0; round < e.opts.MaxRounds; round++ {
		progress := false
		known := s.known(victim)
		stale := fact.NewInstance()
		for _, f := range s.BufferedFacts(victim) {
			if fact.Fresh(f, known) == 0 {
				stale.Add(f)
			}
		}
		changed, err := s.DeliverWhere(victim, stale.Has)
		if err != nil || len(s.WrongFacts) > 0 {
			return err
		}
		if changed {
			progress = true
		}
		for _, x := range s.Net {
			if x == victim {
				continue
			}
			changed, err := s.Deliver(x)
			if err != nil || len(s.WrongFacts) > 0 {
				return err
			}
			if changed {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return nil
}
