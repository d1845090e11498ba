package transducer

import (
	"fmt"

	"repro/internal/fact"
)

// Stepper is the engine-independent transition core of the relational
// transducer semantics (Section 4.1.3): given an active node's fixed
// local fragment, its mutable state and the delivered message set, it
// evaluates the four queries against the visible data plus the model's
// system facts (or runs the transducer's insert-only form of them),
// applies the insert/delete cancellation semantics to the state in
// place, and returns the send set for the caller to route.
// Simulation.transition is its one caller in the machine, so a
// transition computes exactly the same state delta and send set no
// matter which scheduler activated the node.
type Stepper struct {
	Net   Network
	Trans *Transducer
	Pol   Policy
	Mod   Model
}

// StepResult reports one transition's effects. Sent is the send set
// (for the scheduler to route and log); Changed reports whether the
// node's state changed; OutNew lists the output facts added to the
// state by this transition, in evaluation order — the material for
// incremental output unions and per-step soundness checks.
type StepResult struct {
	Sent    *fact.Instance
	Changed bool
	OutNew  []fact.Fact
}

// SystemFacts builds the set S of system facts shown to active node x
// given its visible data J, per the transition semantics of
// Section 4.1.3 (and its All-free modification from Section 4.3).
func (sp *Stepper) SystemFacts(x NodeID, j *fact.Instance) *fact.Instance {
	sys := fact.NewInstance()
	if sp.Mod.ShowId {
		sys.Add(fact.New(RelId, x))
	}
	if !sp.Mod.ShowAll && !sp.Mod.ShowMyAdom && !sp.Mod.ShowPolicy {
		// Oblivious fast path: no remaining system relation depends on
		// the active domain, so skip the adom scan entirely. On large
		// networks this is what makes an idle node's transition cheap.
		return sys
	}
	// The base A: N ∪ adom(J) with All, {x} ∪ adom(J) without.
	a := j.ADom()
	if sp.Mod.ShowAll {
		for _, y := range sp.Net {
			a.Add(y)
			sys.Add(fact.New(RelAll, y))
		}
	} else {
		a.Add(x)
	}
	if sp.Mod.ShowMyAdom {
		for v := range a {
			sys.Add(fact.New(RelMyAdom, v))
		}
	}
	if sp.Mod.ShowPolicy {
		values := a.Sorted()
		for rel, ar := range sp.Trans.Schema.In {
			for _, tup := range enumerateTuples(values, ar) {
				f := fact.FromTuple(rel, tup)
				if Responsible(sp.Pol, x, f) {
					sys.Add(fact.New(PolicyRel(rel), tup...))
				}
			}
		}
	}
	return sys
}

// Step performs one transition of node x and mutates state in place —
// outputs accumulate, memory applies ins/del with the cancellation
// semantics of Section 4.1.3. What the transition produces comes from
// the transducer's insert-only form when it has one (a delta over the
// node's parts, nothing to delete), and otherwise from evaluating
// Out/Ins/Del/Snd on local ∪ state ∪ m ∪ systemFacts; both arms check
// every produced fact against its target schema. The send set is
// returned unrouted; the caller decides recipients, fault treatment and
// logging. Changed does NOT account for sends (schedulers fold that in
// after routing).
func (sp *Stepper) Step(x NodeID, local, state, m *fact.Instance) (StepResult, error) {
	t := sp.Trans
	var out, ins, del, snd *fact.Instance
	if t.Delta != nil {
		d, err := t.Delta(local, state, m)
		if err != nil {
			return StepResult{}, fmt.Errorf("transducer: insert-only form: %w", err)
		}
		if out, err = checkTarget(d.Out, t.Schema.Out, "output"); err != nil {
			return StepResult{}, err
		}
		if ins, err = checkTarget(d.Ins, t.Schema.Mem, "insertion"); err != nil {
			return StepResult{}, err
		}
		if snd, err = checkTarget(d.Snd, t.Schema.Msg, "send"); err != nil {
			return StepResult{}, err
		}
		del = fact.NewInstance()
	} else {
		j := local.Union(state).Union(m)
		d := j.Union(sp.SystemFacts(x, j))
		var err error
		if out, err = runQuery(t.Out, d, t.Schema.Out, "output"); err != nil {
			return StepResult{}, err
		}
		if ins, err = runQuery(t.Ins, d, t.Schema.Mem, "insertion"); err != nil {
			return StepResult{}, err
		}
		if del, err = runQuery(t.Del, d, t.Schema.Mem, "deletion"); err != nil {
			return StepResult{}, err
		}
		if snd, err = runQuery(t.Snd, d, t.Schema.Msg, "send"); err != nil {
			return StepResult{}, err
		}
	}

	res := StepResult{Sent: snd}
	for _, f := range out.Facts() {
		if state.Add(f) {
			res.Changed = true
			res.OutNew = append(res.OutNew, f)
		}
	}
	if !del.Empty() {
		ins, del = ins.Minus(del), del.Minus(ins)
	}
	ins.Each(func(f fact.Fact) bool {
		res.Changed = state.Add(f) || res.Changed
		return true
	})
	del.Each(func(f fact.Fact) bool {
		res.Changed = state.Remove(f) || res.Changed
		return true
	})
	return res, nil
}
