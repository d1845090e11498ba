package transducer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/fact"
	"repro/internal/fanout"
	"repro/internal/obs"
)

// This file holds the two searches for a run that breaks "Π computes
// Q". Explore is exhaustive: it walks every configuration heartbeat and
// deliver-all transitions reach, to closure — a strict subset of the
// paper's runs, which deliver any submultiset, but one that exercises
// the races that matter and ends every run it contains.
// ExploreSchedules goes deep on a curated family of adversarial and
// faulty schedules. Both test soundness the one way the machine does: a
// Simulation with Want set appends every new output fact outside it to
// WrongFacts (sim.go, transition), and an explorer reads that.

// Explore walks, breadth first, every configuration reachable from the
// start configuration of (net, t, pol, mod) on input, each step a
// heartbeat or a deliver-all at one node, with want as the machine's
// oracle. A configuration is each node's state and the set of its
// buffered facts: deliver-all reads a buffer as a set, no fault plan
// is installed, and a node's Stepper memory is rebuilt from its state.
// The first transition that outputs a fact outside want is a WrongFact
// violation, and a sink — a configuration every transition leaves as
// it is — whose output is not want a Divergence; each comes with a
// shortest schedule (the steps, space-separated). A level deeper than
// RoundBound(0)·|N| steps is a NoQuiescence violation. Explore returns
// the first violation, nil once the graph closes without one, and the
// number of configurations walked.
func Explore(net Network, t *Transducer, pol Policy, mod Model, input, want *fact.Instance) (*ScheduleViolation, int, error) {
	start, err := NewSimulation(net, t, pol, mod, input)
	if err != nil {
		return nil, 0, err
	}
	start.Want = want
	bound := start.RoundBound(0) * len(net)
	// A configuration, its key and a shortest schedule that reaches it.
	type config struct {
		s             *Simulation
		key, schedule string
	}
	var st ExploreStats
	var k keySet
	level := []config{{start, configKey(start, &k), ""}}
	seen := map[string]bool{level[0].key: true}
	for depth := 0; len(level) > 0; depth++ {
		if depth > bound {
			v, err := st.Record(level[0].s, level[0].schedule, nil, fmt.Errorf("%w (%d steps)", ErrNoQuiescence, bound), nil)
			return v, len(seen), err
		}
		var next []config
		for _, c := range level {
			sink := true
			for _, x := range net {
				for _, op := range []string{"hb", "dl"} {
					s, schedule := c.s.clone(), strings.TrimSpace(fmt.Sprintf("%s %s:%s", c.schedule, x, op))
					step := s.Heartbeat
					if op == "dl" {
						step = s.Deliver
					}
					if _, err := step(x); err != nil || len(s.WrongFacts) > 0 {
						v, err := st.Record(s, schedule, nil, err, nil)
						return v, len(seen), err
					}
					if key := configKey(s, &k); key != c.key {
						sink = false
						if !seen[key] {
							seen[key] = true
							next = append(next, config{s, key, schedule})
						}
					}
				}
			}
			if sink {
				if v, err := st.Record(c.s, c.schedule, c.s.Output(), nil, nil); v != nil || err != nil {
					return v, len(seen), err
				}
			}
		}
		level = next
	}
	return nil, len(seen), nil
}

// configKey is the exact key of s's configuration: each node's state
// and the set of its buffered facts, every fact written as its arity and
// packed ids. A set's facts go in the order of those bytes: any order
// fixed within the process makes the key canonical, and this one
// compares no symbol strings. k is the caller's scratch.
func configKey(s *Simulation, k *keySet) string {
	k.key = k.key[:0]
	for i := range s.Net {
		n := &s.nodes[i]
		n.state.EachIDs(k.add)
		k.appendSet()
		for _, c := range n.buf.msgs {
			k.add(c.f.RelID(), c.f.ArgIDs())
		}
		k.appendSet()
	}
	return string(k.key)
}

// keySet is configKey's scratch: the key so far, and the set being
// collected as byte records, each a fact's arity and packed ids; at[j]
// is where record j starts in buf.
type keySet struct {
	key, buf []byte
	at       []int
	recs     [][]byte
}

func (k *keySet) add(rel fact.ID, args []fact.ID) bool {
	k.at = append(k.at, len(k.buf))
	k.buf = binary.AppendUvarint(k.buf, uint64(len(args)))
	k.buf = fact.AppendPackedIDs(fact.AppendPackedIDs(k.buf, rel), args...)
	return true
}

// appendSet appends the set collected so far to the key, its size and
// then its distinct records in byte order, and empties it for the next.
func (k *keySet) appendSet() {
	k.recs = k.recs[:0]
	for j, start := range k.at {
		end := len(k.buf)
		if j+1 < len(k.at) {
			end = k.at[j+1]
		}
		k.recs = append(k.recs, k.buf[start:end])
	}
	slices.SortFunc(k.recs, bytes.Compare)
	k.recs = slices.CompactFunc(k.recs, bytes.Equal)
	k.key = binary.AppendUvarint(k.key, uint64(len(k.recs)))
	for _, r := range k.recs {
		k.key = append(k.key, r...)
	}
	k.buf, k.at = k.buf[:0], k.at[:0]
}

// ----------------------------------------------------------------------
// Adversarial schedule exploration.
//
// ExploreSchedules runs a curated family of deep adversarial schedules
// — per-node starvation until a fairness deadline, greedy adversaries
// built around fresh active-domain values (the pattern behind the known
// out-of-class failures of the F2.8–F2.10 strategies), and a sweep of
// seeded random schedules under random fault plans — checking after
// every transition that the output stays inside Q(I) and at quiescence
// that it equals Q(I). Each schedule is a pure function of the start
// configuration and its label, so the schedules are played on every
// core (fanout.InOrder) and folded in the order listed; the first violation,
// the stats and the trace are the serial loop's at any GOMAXPROCS.

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
// explored schedule converges to want without ever leaving it). The
// schedules run concurrently and are judged in that order.
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

	// The schedules in the order they are folded: the fixed families,
	// then the seed sweep.
	var plays []func() played
	fixed := func(label string, prefix func(*Simulation) error) {
		plays = append(plays, func() played { return e.run(label, nil, prefix) })
	}
	fixed("fair", nil)
	if !opts.SkipStarvation {
		for _, x := range net {
			fixed(fmt.Sprintf("starve:%s", x), func(s *Simulation) error { return e.starve(s, x, nil) })
		}
	}
	if !opts.SkipAdversary {
		fixed("adv-flood-fresh", e.freshFlood)
		for _, x := range net {
			fixed(fmt.Sprintf("adv-starve-fresh:%s", x), func(s *Simulation) error { return e.starve(s, x, deliverStale) })
		}
	}
	for k := range opts.Seeds {
		seed := opts.BaseSeed + int64(k)
		plays = append(plays, func() played {
			return e.run(fmt.Sprintf("seed:%d", seed), RandomFaultPlan(net, seed, opts.Faults), func(s *Simulation) error { return s.RandomPrefix(seed, 8*len(net)) })
		})
	}
	var stats ExploreStats
	var v *ScheduleViolation
	fanout.InOrder(len(plays), func(k int) played { return plays[k]() }, func(r played) bool {
		v, err = stats.Record(r.s, r.label, r.out, r.err, opts.Tracer)
		return v != nil || err != nil
	})
	return v, stats, err
}

// explorer carries the fixed exploration context. A run reads it and
// writes nothing back, so runs may go on any goroutine.
type explorer struct {
	// start is the start configuration with Want set; every schedule
	// runs on a clone of it.
	start *Simulation
	opts  ExploreOptions
}

// played is a finished run awaiting its verdict.
type played struct {
	s     *Simulation
	label string
	out   *fact.Instance
	err   error
}

// run plays one schedule on a copy of the start configuration. A
// nonempty fault plan is installed first, named in the label and adds
// its horizon to the round bound; prefix (nil for none) takes the
// schedule's own steps and returns at an error or the first wrong
// fact; a fair drive takes the rest to quiescence. Record gives the
// verdict, in schedule order.
func (e *explorer) run(label string, plan *FaultPlan, prefix func(*Simulation) error) played {
	s := e.start.clone()
	if !plan.Empty() {
		label = fmt.Sprintf("%s faults[%s]", label, plan)
		s.SetFaults(plan)
	}
	rounds := s.RoundBound(e.opts.MaxRounds)
	r := played{s: s, label: label}
	if prefix != nil {
		r.err = prefix(s)
	}
	if r.err == nil && len(s.WrongFacts) == 0 {
		r.out, r.err = s.RunToQuiescence(rounds)
	}
	return r
}

// Record is the one verdict on an explored run. s ran as schedule
// label with s.Want as its oracle and ended with (out, err): out(R) at
// quiescence, or the error that stopped it. Record names the run's
// violation — a run that did not quiesce, else the first wrong fact
// the machine appended, else a quiescent output other than Want —
// checks message conservation, folds the run into st, whether it
// completed, violated or failed, and emits explore.schedule (and
// explore.violation) on tracer. An error other than ErrNoQuiescence, or
// a broken conservation, comes back as the error. Every explorer calls
// it: Explore, ExploreSchedules and netsim.Sweep.
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
			label, m.MessagesSent, m.MessagesDelivered, s.TotalBuffered(), s.totalHeld(), s.inflight, m.MessagesDropped)
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
// local facts stay invisible for the whole starvation phase. With a
// non-nil victimStep, each round starts with that step of the victim
// instead. The fairness deadline then admits the victim and the run
// must still converge to want.
func (e *explorer) starve(s *Simulation, victim NodeID, victimStep func(*Simulation, NodeID) (bool, error)) error {
	for round := 0; round < e.opts.MaxRounds; round++ {
		progress := false
		for k := -1; k < len(s.Net); k++ { // k = -1 is the victim's step
			var changed bool
			var err error
			switch {
			case k < 0 && victimStep != nil:
				changed, err = victimStep(s, victim)
			case k < 0 || s.Net[k] == victim:
				continue
			default:
				changed, err = s.Deliver(s.Net[k])
			}
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

// deliverStale is the victim's step in the dual adversary to
// freshFlood, a starvation whose victim is delivered only messages
// whose values it already knows. Absence announcements,
// acknowledgments and data over the victim's current domain flow
// freely; anything mentioning a fresh value is withheld. A strategy
// that declares its picture of the input complete from such a confined
// domain emits its wrong facts here — this is the schedule shape behind
// the known out-of-class divergences of the absence and domain-request
// strategies. The fairness deadline then delivers everything.
func deliverStale(s *Simulation, victim NodeID) (bool, error) {
	known := s.known(victim)
	return s.DeliverWhere(victim, func(f fact.Fact) bool { return fact.Fresh(f, known) == 0 })
}
