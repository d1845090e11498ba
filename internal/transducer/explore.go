package transducer

import (
	"fmt"
	"math/rand"

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

// Violation describes a safety violation found by Explore: a schedule
// (sequence of node/delivery choices) after which the network output
// contains a fact outside the allowed set.
type Violation struct {
	Schedule []string
	Output   *fact.Instance
	Bad      fact.Fact
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("transducer: schedule %v produced out-of-answer fact %v (output %v)", v.Schedule, v.Bad, v.Output)
}

// Explore enumerates every schedule of at most depth steps from the
// start configuration of (net, t, pol, mod) on input, checking after
// every step that the network output stays within `allowed`. It
// returns the first violation found, or nil if all reachable outputs
// are sound. The number of explored runs is (2·|N|)^depth; keep depth
// and the network small.
func Explore(net Network, t *Transducer, pol Policy, mod Model, input, allowed *fact.Instance, depth int) (*Violation, error) {
	type choice struct {
		node    NodeID
		deliver bool
	}
	var choices []choice
	for _, x := range net {
		choices = append(choices, choice{x, false}, choice{x, true})
	}

	var schedule []string
	var rec func(s *Simulation, remaining int) (*Violation, error)
	rec = func(s *Simulation, remaining int) (*Violation, error) {
		out := s.Output()
		var bad *fact.Fact
		out.Each(func(f fact.Fact) bool {
			if !allowed.Has(f) {
				g := f
				bad = &g
				return false
			}
			return true
		})
		if bad != nil {
			return &Violation{Schedule: append([]string{}, schedule...), Output: out, Bad: *bad}, nil
		}
		if remaining == 0 {
			return nil, nil
		}
		for _, c := range choices {
			branch := s.Clone()
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
	// MaxRounds bounds each run's fair drive; 0 picks a generous
	// default (extended by each fault plan's horizon).
	MaxRounds int
	// SkipStarvation and SkipAdversary disable the deterministic
	// schedule families, leaving only the seed sweep.
	SkipStarvation bool
	SkipAdversary  bool
	// Sink, when non-nil, receives one explore.schedule event per
	// schedule run (and an explore.violation event when a schedule
	// breaks the property). Per-transition simulation events are not
	// attached here — wire a sink to an individual Simulation for that.
	Sink *obs.Sink
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
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 32 + input.Len() + 4*len(net)
	}
	e := &explorer{net: net, t: t, pol: pol, mod: mod, input: input, want: want, opts: opts}

	run := func(f func() (*ScheduleViolation, error)) (*ScheduleViolation, error) {
		e.current = nil
		v, err := f()
		e.record(v, err)
		return v, err
	}

	// Fair round-robin baseline.
	if v, err := run(e.fairRun); v != nil || err != nil {
		return v, e.stats, err
	}
	if !opts.SkipStarvation {
		for _, victim := range net {
			x := victim
			if v, err := run(func() (*ScheduleViolation, error) { return e.starveRun(x) }); v != nil || err != nil {
				return v, e.stats, err
			}
		}
	}
	if !opts.SkipAdversary {
		if v, err := run(e.freshFloodRun); v != nil || err != nil {
			return v, e.stats, err
		}
		for _, victim := range net {
			x := victim
			if v, err := run(func() (*ScheduleViolation, error) { return e.freshStarveRun(x) }); v != nil || err != nil {
				return v, e.stats, err
			}
		}
	}
	for k := 0; k < opts.Seeds; k++ {
		seed := opts.BaseSeed + int64(k)
		if v, err := run(func() (*ScheduleViolation, error) { return e.seedRun(seed) }); v != nil || err != nil {
			return v, e.stats, err
		}
	}
	return nil, e.stats, nil
}

// explorer carries the fixed exploration context.
type explorer struct {
	net   Network
	t     *Transducer
	pol   Policy
	mod   Model
	input *fact.Instance
	want  *fact.Instance
	opts  ExploreOptions
	stats ExploreStats
	// current is the schedule being run, registered by newRun so the
	// run wrapper can account for it even when the runner bails out
	// before reaching finish — the old per-finish accounting silently
	// undercounted schedules aborted by an early violation.
	current *scheduleRun
}

func (e *explorer) newRun(label string) (*scheduleRun, error) {
	sim, err := NewSimulation(e.net, e.t, e.pol, e.mod, e.input)
	if err != nil {
		return nil, err
	}
	r := &scheduleRun{e: e, sim: sim, label: label}
	e.current = r
	return r, nil
}

// record folds one schedule's outcome into the stats and emits the
// schedule-level events. Called once per schedule by the run wrapper,
// whether the schedule completed, violated, or errored.
func (e *explorer) record(v *ScheduleViolation, err error) {
	e.stats.Schedules++
	r := e.current
	if r == nil {
		return
	}
	m := r.sim.RunMetrics()
	e.stats.Transitions += m.Transitions
	e.stats.Sim.Merge(m)
	aborted := v != nil || err != nil
	if aborted {
		e.stats.Aborted++
	}
	if v != nil {
		e.stats.Violations++
	}
	if sink := e.opts.Sink; sink != nil {
		sink.Emit(obs.EvSchedule,
			obs.F("label", r.label),
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
}

// scheduleRun wraps one simulation with per-step soundness checking.
type scheduleRun struct {
	e     *explorer
	sim   *Simulation
	label string
}

// checkSound verifies output ⊆ want after a step.
func (r *scheduleRun) checkSound() *ScheduleViolation {
	out := r.sim.Output()
	var bad *fact.Fact
	out.Each(func(f fact.Fact) bool {
		if !r.e.want.Has(f) {
			g := f
			bad = &g
			return false
		}
		return true
	})
	if bad == nil {
		return nil
	}
	return &ScheduleViolation{
		Kind:     WrongFact,
		Schedule: r.label,
		Step:     r.sim.RunMetrics().Transitions,
		Bad:      bad,
		Output:   out,
		Want:     r.e.want,
	}
}

// finish drives the run fairly to quiescence (still checking every
// step) and verifies the final output equals want. extraRounds widens
// the bound for runs whose fault plan has a late horizon.
func (r *scheduleRun) finish(extraRounds int) (*ScheduleViolation, error) {
	maxRounds := r.e.opts.MaxRounds + extraRounds
	for round := 0; round < maxRounds; round++ {
		anyChanged := false
		for _, x := range r.e.net {
			changed, err := r.sim.Deliver(x)
			if err != nil {
				return nil, err
			}
			if v := r.checkSound(); v != nil {
				return v, nil
			}
			if changed {
				anyChanged = true
			}
		}
		if !anyChanged && r.sim.TotalBuffered() == 0 && r.sim.TotalHeld() == 0 && r.sim.FaultsDone() {
			out := r.sim.Output()
			if !out.Equal(r.e.want) {
				return &ScheduleViolation{
					Kind:     Divergence,
					Schedule: r.label,
					Step:     r.sim.RunMetrics().Transitions,
					Output:   out,
					Want:     r.e.want,
				}, nil
			}
			return nil, nil
		}
	}
	return &ScheduleViolation{
		Kind:     NoQuiescence,
		Schedule: r.label,
		Step:     r.sim.RunMetrics().Transitions,
		Output:   r.sim.Output(),
		Want:     r.e.want,
	}, nil
}

// fairRun is the round-robin baseline with per-step checking.
func (e *explorer) fairRun() (*ScheduleViolation, error) {
	r, err := e.newRun("fair")
	if err != nil {
		return nil, err
	}
	return r.finish(0)
}

// starveRun keeps the victim from taking any transition while the rest
// of the network runs round-robin to a fixed point — the victim's
// local facts stay invisible for the whole starvation phase. The
// fairness deadline then admits the victim and the run must still
// converge to want.
func (e *explorer) starveRun(victim NodeID) (*ScheduleViolation, error) {
	r, err := e.newRun(fmt.Sprintf("starve:%s", victim))
	if err != nil {
		return nil, err
	}
	for round := 0; round < e.opts.MaxRounds; round++ {
		progress := false
		for _, x := range e.net {
			if x == victim {
				continue
			}
			changed, err := r.sim.Deliver(x)
			if err != nil {
				return nil, err
			}
			if v := r.checkSound(); v != nil {
				return v, nil
			}
			if changed {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return r.finish(0)
}

// freshCount counts the argument values of f that x has not seen yet.
func freshCount(known fact.ValueSet, f fact.Fact) int {
	fresh := 0
	for i := 0; i < f.Arity(); i++ {
		if _, ok := known[f.Arg(i)]; !ok {
			fresh++
		}
	}
	return fresh
}

// freshFloodRun is the greedy fresh-value adversary: at every step it
// delivers exactly ONE buffered fact — the one introducing the most
// values its recipient has never seen — so each node's active domain
// expands as far ahead of its data as any schedule allows. This is the
// single-fact generalization of the race behind premature outputs:
// a node that learns a value before the facts about it evaluates the
// query on an inflated, incomplete picture.
func (e *explorer) freshFloodRun() (*ScheduleViolation, error) {
	r, err := e.newRun("adv-flood-fresh")
	if err != nil {
		return nil, err
	}
	budget := e.opts.MaxRounds * len(e.net)
	for step := 0; step < budget; step++ {
		bestScore := 0
		var bestNode NodeID
		var bestFact fact.Fact
		for _, x := range e.net {
			known := r.sim.KnownValues(x)
			for _, f := range r.sim.BufferedFacts(x) {
				if n := freshCount(known, f); n > bestScore {
					bestScore, bestNode, bestFact = n, x, f
				}
			}
		}
		if bestScore == 0 {
			// No delivery introduces a fresh value; heartbeat everyone
			// once to let protocols emit, then retry or finish.
			progress := false
			for _, x := range e.net {
				changed, err := r.sim.Heartbeat(x)
				if err != nil {
					return nil, err
				}
				if v := r.checkSound(); v != nil {
					return v, nil
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
		if _, err := r.sim.DeliverBatch(bestNode, fact.NewInstance(bestFact)); err != nil {
			return nil, err
		}
		if v := r.checkSound(); v != nil {
			return v, nil
		}
	}
	return r.finish(0)
}

// freshStarveRun is the dual adversary, aimed at one victim: every
// other node runs fairly, while the victim is delivered only messages
// whose values it already knows. Absence announcements, acknowledgments
// and data over the victim's current domain flow freely; anything
// mentioning a fresh value is withheld. A strategy that declares its
// picture of the input complete from such a confined domain emits its
// wrong facts here — this is the schedule shape behind the known
// out-of-class divergences of the absence and domain-request
// strategies. The fairness deadline then delivers everything.
func (e *explorer) freshStarveRun(victim NodeID) (*ScheduleViolation, error) {
	r, err := e.newRun(fmt.Sprintf("adv-starve-fresh:%s", victim))
	if err != nil {
		return nil, err
	}
	for round := 0; round < e.opts.MaxRounds; round++ {
		progress := false
		known := r.sim.KnownValues(victim)
		stale := fact.NewInstance()
		for _, f := range r.sim.BufferedFacts(victim) {
			if freshCount(known, f) == 0 {
				stale.Add(f)
			}
		}
		changed, err := r.sim.DeliverBatch(victim, stale)
		if err != nil {
			return nil, err
		}
		if v := r.checkSound(); v != nil {
			return v, nil
		}
		if changed {
			progress = true
		}
		for _, x := range e.net {
			if x == victim {
				continue
			}
			changed, err := r.sim.Deliver(x)
			if err != nil {
				return nil, err
			}
			if v := r.checkSound(); v != nil {
				return v, nil
			}
			if changed {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return r.finish(0)
}

// seedRun runs one seeded random schedule under a fault plan derived
// from the same seed: a random prefix mixing heartbeats, full, random
// and planned-batch deliveries across random nodes, then a fair drive
// to quiescence. Reproducible from (seed, opts.Faults) alone.
func (e *explorer) seedRun(seed int64) (*ScheduleViolation, error) {
	plan := RandomFaultPlan(e.net, seed, e.opts.Faults)
	label := fmt.Sprintf("seed:%d", seed)
	extra := 0
	r, err := e.newRun(label)
	if err != nil {
		return nil, err
	}
	if !plan.Empty() {
		r.label = fmt.Sprintf("seed:%d faults[%s]", seed, plan)
		r.sim.SetFaults(plan)
		extra = plan.Horizon()
	}
	rng := rand.New(rand.NewSource(seed))
	steps := 4 * len(e.net) * 2
	for n := 0; n < steps; n++ {
		x := e.net[rng.Intn(len(e.net))]
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = r.sim.Heartbeat(x)
		case 1:
			_, err = r.sim.Deliver(x)
		case 2:
			_, err = r.sim.DeliverRandom(x, rng)
		default:
			// A random planned batch: each buffered fact kept or
			// withheld by coin flip (all copies at once).
			_, err = r.sim.DeliverWhere(x, func(fact.Fact) bool { return rng.Intn(2) == 0 })
		}
		if err != nil {
			return nil, err
		}
		if v := r.checkSound(); v != nil {
			return v, nil
		}
	}
	return r.finish(extra)
}
