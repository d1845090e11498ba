package transducer

import (
	"fmt"
	"slices"

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

	// memo caches the policy answers behind the Policy_R relations. It
	// is made on the first probe, when the model shows them.
	memo policyMemo
}

// policyMemo caches, for one run, whether a node is responsible for an
// input fact R(ā) under the run's policy — a pure function of (policy,
// node, fact). Per node, the tuples of one relation share a TupleIndex
// whose row is 1 for yes and 0 for no. It is keyed by IDs the probed
// tuples already carry, so it interns nothing. Like the Simulation, it
// is not safe for concurrent use; a Simulation's clone starts its own.
type policyMemo map[NodeID]map[relArity]fact.TupleIndex

type relArity struct {
	rel   fact.ID
	arity int
}

// System is the system instance S that the model shows active node x
// in one transition (Section 4.1.3), over its visible data
// J = local ∪ state ∪ m, read by probe instead of materialised.
// SystemFacts is its materialisation, so S has one definition. Id
// costs nothing; the base A, and with it MyAdom and the Policy_R
// relations, takes a scan of J and is computed only when Base is
// called.
type System struct {
	sp *Stepper
	x  NodeID
	j  [3]*fact.Instance // the parts of J; unused slots are nil
}

// Id returns x and whether the model shows Id(x).
func (s System) Id() (NodeID, bool) { return s.x, s.sp.Mod.ShowId }

// Base computes the base A of the transition: N ∪ adom(J) when the
// model shows All, {x} ∪ adom(J) otherwise.
func (s System) Base() Base {
	var vals []fact.ID
	if s.sp.Mod.ShowAll {
		for _, y := range s.sp.Net {
			vals = append(vals, fact.Intern(y))
		}
	} else {
		vals = append(vals, fact.Intern(s.x))
	}
	for _, part := range s.j {
		if part != nil {
			part.EachIDs(func(_ fact.ID, args []fact.ID) bool {
				vals = append(vals, args...)
				return true
			})
		}
	}
	slices.Sort(vals)
	b := Base{sys: s, vals: slices.Compact(vals)}
	if s.sp.Mod.ShowPolicy {
		if s.sp.memo == nil {
			s.sp.memo = make(policyMemo)
		}
		if b.memo = s.sp.memo[s.x]; b.memo == nil {
			b.memo = make(map[relArity]fact.TupleIndex)
			s.sp.memo[s.x] = b.memo
		}
	}
	return b
}

// Base is the base A of one transition and the system relations
// defined over it.
type Base struct {
	sys  System
	vals []fact.ID // A, sorted by ID
	memo map[relArity]fact.TupleIndex
}

// has reports whether v is in A.
func (b *Base) has(v fact.ID) bool {
	_, ok := slices.BinarySearch(b.vals, v)
	return ok
}

// MyAdom returns the values a with MyAdom(a) in S: A when the model
// shows MyAdom, none otherwise. The slice is the Base's own; read it
// only.
func (b *Base) MyAdom() []fact.ID {
	if !b.sys.sp.Mod.ShowMyAdom {
		return nil
	}
	return b.vals
}

// Responsible reports whether Policy_R(args) is in S for the input
// relation rel: the model shows the policy relations, args is a tuple
// over A, and x is responsible for rel(args) under the policy.
func (b *Base) Responsible(rel fact.ID, args []fact.ID) bool {
	sp := b.sys.sp
	if !sp.Mod.ShowPolicy {
		return false
	}
	for _, v := range args {
		if !b.has(v) {
			return false
		}
	}
	k := relArity{rel, len(args)}
	idx, ok := b.memo[k]
	if !ok {
		idx = fact.NewTupleIndex(len(args))
		b.memo[k] = idx
	}
	if yes, ok := idx.Get(args); ok {
		return yes == 1
	}
	yes := sp.responsible(b.sys.x, rel, args)
	if yes {
		idx.Put(args, 1)
	} else {
		idx.Put(args, 0)
	}
	return yes
}

// responsible asks the policy whether x is responsible for rel(args),
// rel an input relation of the transducer.
func (sp *Stepper) responsible(x NodeID, rel fact.ID, args []fact.ID) bool {
	if ar, ok := sp.Trans.Schema.In.Arity(string(fact.Symbol(rel))); !ok || ar != len(args) {
		return false
	}
	return Responsible(sp.Pol, x, fact.FromIDs(rel, args))
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

// SystemFacts materialises the System view of active node x over its
// visible data J: the set S of Section 4.1.3 (and of its All-free
// modification from Section 4.3).
func (sp *Stepper) SystemFacts(x NodeID, j *fact.Instance) *fact.Instance {
	s := System{sp: sp, x: x, j: [3]*fact.Instance{j}}
	sys := fact.NewInstance()
	if id, ok := s.Id(); ok {
		sys.Add(fact.New(RelId, id))
	}
	if !sp.Mod.ShowAll && !sp.Mod.ShowMyAdom && !sp.Mod.ShowPolicy {
		// Oblivious fast path: no remaining system relation depends on
		// the active domain, so skip the adom scan entirely. On large
		// networks this is what makes an idle node's transition cheap.
		return sys
	}
	if sp.Mod.ShowAll {
		for _, y := range sp.Net {
			sys.Add(fact.New(RelAll, y))
		}
	}
	b := s.Base()
	if vals := b.MyAdom(); len(vals) > 0 {
		rel := fact.InternString(RelMyAdom)
		for i := range vals {
			sys.AddIDs(rel, vals[i:i+1])
		}
	}
	if sp.Mod.ShowPolicy {
		for name, ar := range sp.Trans.Schema.In {
			rel, pol := fact.InternString(name), fact.InternString(PolicyRel(name))
			fact.EachTuple(b.vals, ar, func(args []fact.ID) bool {
				if b.Responsible(rel, args) {
					sys.AddIDs(pol, args)
				}
				return true
			})
		}
	}
	return sys
}

// Step performs one transition of node x and mutates state in place —
// outputs accumulate, memory applies ins/del with the cancellation
// semantics of Section 4.1.3. What the transition produces comes from
// the transducer's insert-only form when it has one (a delta over the
// node's parts and the System view of S, nothing to delete), and
// otherwise from evaluating
// Out/Ins/Del/Snd on local ∪ state ∪ m ∪ systemFacts; both arms check
// every produced fact against its target schema. The send set is
// returned unrouted; the caller decides recipients, fault treatment and
// logging. Changed does NOT account for sends (schedulers fold that in
// after routing).
func (sp *Stepper) Step(x NodeID, local, state, m *fact.Instance) (StepResult, error) {
	t := sp.Trans
	var out, ins, del, snd *fact.Instance
	if t.Delta != nil {
		d, err := t.Delta(local, state, m, System{sp: sp, x: x, j: [3]*fact.Instance{local, state, m}})
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
		if !del.Empty() {
			ins, del = ins.Minus(del), del.Minus(ins)
		}
	}

	// Only the output facts the state lacks are materialised; they enter
	// the state in sorted order.
	res := StepResult{Sent: snd}
	out.EachIDs(func(rel fact.ID, args []fact.ID) bool {
		if !state.HasIDs(rel, args) {
			res.OutNew = append(res.OutNew, fact.FromIDs(rel, args))
		}
		return true
	})
	fact.SortFacts(res.OutNew)
	for _, f := range res.OutNew {
		state.Add(f)
	}
	res.Changed = len(res.OutNew) > 0
	ins.EachIDs(func(rel fact.ID, args []fact.ID) bool {
		res.Changed = state.AddIDs(rel, args) || res.Changed
		return true
	})
	if del != nil {
		del.Each(func(f fact.Fact) bool {
			res.Changed = state.Remove(f) || res.Changed
			return true
		})
	}
	return res, nil
}
