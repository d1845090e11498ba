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

	// acc holds the insert-only form's accumulators, made on its first
	// transition and reset at the start of every later one. It is the
	// Stepper's own: a Simulation's clone starts without.
	acc Delta
	// mem holds each node's memory, made by its form's first Base call.
	mem map[NodeID]*memory
}

// memory is what the Stepper carries between a node's transitions for
// its insert-only form. It describes one state instance, which only
// grows between crashes, and learns what Step applies; any other state
// (a crash's, a clone's, one changed outside Step) gets a fresh memory.
type memory struct {
	state *fact.Instance
	rows  int       // state.Len() as the memory last saw it
	adom  []fact.ID // x (N when the model shows All) ∪ adom(local ∪ state), sorted
	grew  bool      // adom grew since the last Base
	seen  []fact.ID // every value of A so far, sorted
	// buffers for A, its unseen values and its values beyond adom
	vals, fresh, extra []fact.ID
	Memo
}

// Memo is what an insert-only form keeps of one node between its
// transitions, dropped with the memory.
type Memo struct {
	Open [][]fact.ID // candidates still unresolved, row-major; nil at first
	Wake []fact.ID   // what to revisit at the node's next transition
	K    int         // |K| at the last evaluation of Q, -1 before it
}

// memory returns x's memory of state, made afresh unless it saw it last.
func (sp *Stepper) memory(x NodeID, local, state *fact.Instance) *memory {
	mem := sp.valid(x, state)
	if mem == nil {
		if sp.mem == nil {
			sp.mem = make(map[NodeID]*memory)
		}
		mem = sp.newMemory(x, local, state)
		sp.mem[x] = mem
	}
	return mem
}

// valid returns x's memory if it describes state as it stands.
func (sp *Stepper) valid(x NodeID, state *fact.Instance) *memory {
	if mem := sp.mem[x]; mem != nil && mem.state == state && mem.rows == state.Len() {
		return mem
	}
	return nil
}

// newMemory scans adom(local ∪ state); state may be nil.
func (sp *Stepper) newMemory(x NodeID, local, state *fact.Instance) *memory {
	mem := &memory{state: state, adom: []fact.ID{fact.Intern(x)}, Memo: Memo{K: -1}}
	if sp.Mod.ShowAll {
		for _, y := range sp.Net {
			mem.adom = append(mem.adom, fact.Intern(y))
		}
	}
	for _, part := range []*fact.Instance{local, state} {
		if part != nil {
			mem.rows = part.Len()
			part.EachIDs(func(_ fact.ID, args []fact.ID) bool {
				mem.adom = append(mem.adom, args...)
				return true
			})
		}
	}
	slices.Sort(mem.adom)
	mem.adom = slices.Compact(mem.adom)
	return mem
}

// add puts the values of a row Step added to the state into adom.
func (mem *memory) add(args []fact.ID) {
	if mem == nil {
		return
	}
	mem.rows++
	for _, v := range args {
		if k, ok := slices.BinarySearch(mem.adom, v); !ok {
			mem.adom, mem.grew = slices.Insert(mem.adom, k, v), true
		}
	}
}

// accumulators returns acc emptied for one insert-only transition:
// its instances keep their maps and row storage, so a transition
// allocates only where it adds more than an earlier one did.
func (sp *Stepper) accumulators() *Delta {
	if sp.acc.Out == nil {
		sp.acc = Delta{Out: fact.NewInstance(), Ins: fact.NewInstance(), Snd: fact.NewInstance(), Scratch: fact.NewInstance()}
	}
	sp.acc.Out.Reset()
	sp.acc.Ins.Reset()
	sp.acc.Snd.Reset()
	sp.acc.Scratch.Reset()
	return &sp.acc
}

// System is the system instance S that the model shows active node x
// in one transition (Section 4.1.3), over its visible data
// J = local ∪ state ∪ m, read by probe instead of materialised.
// systemFacts is its materialisation, so S has one definition. Id
// costs nothing; the base A, and with it MyAdom and the Policy_R
// relations, is computed only when Base is called.
type System struct {
	sp *Stepper
	x  NodeID
	j  [3]*fact.Instance // local, state and m
}

// Id returns x and whether the model shows Id(x).
func (s System) Id() (NodeID, bool) { return s.x, s.sp.Mod.ShowId }

// Base computes the base A of the transition: N ∪ adom(J) when the
// model shows All, {x} ∪ adom(J) otherwise. All but adom(m) comes from
// the node's memory, so a transition merges in only adom(m).
func (s System) Base() Base {
	return s.sp.memory(s.x, s.j[0], s.j[1]).base(s, s.j[2])
}

// base is Base over the memory's adom and m. A value is new if it is
// unseen: only values beyond adom or added to it since the last Base
// can be.
func (mem *memory) base(s System, m *fact.Instance) Base {
	extra := mem.extra[:0]
	if m != nil {
		m.EachIDs(func(_ fact.ID, args []fact.ID) bool {
			for _, v := range args {
				if _, ok := slices.BinarySearch(mem.adom, v); !ok {
					extra = append(extra, v)
				}
			}
			return true
		})
	}
	vals, fresh := mem.adom, mem.fresh[:0]
	if len(extra) > 0 {
		vals = append(append(mem.vals[:0], mem.adom...), extra...)
		slices.Sort(vals)
		vals, mem.vals = slices.Compact(vals), vals
	}
	if len(extra) > 0 || mem.grew || mem.seen == nil {
		for _, v := range vals {
			if _, ok := slices.BinarySearch(mem.seen, v); !ok {
				fresh = append(fresh, v)
			}
		}
		mem.seen = append(mem.seen, fresh...)
		slices.Sort(mem.seen)
	}
	mem.extra, mem.fresh, mem.grew = extra, fresh, false
	return Base{sys: s, vals: vals, mem: mem}
}

// Base is the base A of one transition and the system relations
// defined over it.
type Base struct {
	sys  System
	vals []fact.ID // A, sorted by ID
	mem  *memory
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

// New returns the values of MyAdom the node's memory had not seen: all
// of them on its first transition. Read it only.
func (b *Base) New() []fact.ID {
	if !b.sys.sp.Mod.ShowMyAdom {
		return nil
	}
	return b.mem.fresh
}

// Memo returns what the node's form keeps between its transitions.
func (b *Base) Memo() *Memo { return &b.mem.Memo }

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
	return sp.responsible(b.sys.x, rel, args)
}

// responsible asks the policy whether x is responsible for rel(args),
// rel an input relation of the transducer.
func (sp *Stepper) responsible(x NodeID, rel fact.ID, args []fact.ID) bool {
	if ar, ok := sp.Trans.Schema.In.Arity(string(fact.Symbol(rel))); !ok || ar != len(args) {
		return false
	}
	return slices.Contains(sp.Pol.Nodes(fact.FromIDs(rel, args)), x)
}

// StepResult reports one transition's effects. Sent is the send set
// (for the scheduler to route and log); after an insert-only transition
// it is the Stepper's accumulator, valid until the Stepper's next Step.
// Changed reports whether the node's state changed; OutNew lists the
// output facts added to the state by this transition, in sorted order —
// the material for incremental output unions and per-step soundness
// checks, the caller's to keep.
type StepResult struct {
	Sent    *fact.Instance
	Changed bool
	OutNew  []fact.Fact
}

// systemFacts materialises the System view of active node x over its
// visible data J: the set S of Section 4.1.3 (and of its All-free
// modification from Section 4.3).
func (sp *Stepper) systemFacts(x NodeID, j *fact.Instance) *fact.Instance {
	s := System{sp: sp, x: x}
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
	b := sp.newMemory(x, j, nil).base(s, nil)
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
// node's parts and the System view of S, nothing to delete, written
// into the Stepper's accumulators), and otherwise from evaluating
// Out/Ins/Del/Snd on local ∪ state ∪ m ∪ systemFacts; both arms check
// every produced fact against its target schema. The send set is
// returned unrouted; the caller decides recipients, fault treatment and
// logging. Changed does NOT account for sends (schedulers fold that in
// after routing). The node's memory, if its form made one, learns the
// facts the transition applies; a failed transition drops it.
func (sp *Stepper) Step(x NodeID, local, state, m *fact.Instance) (StepResult, error) {
	t := sp.Trans
	var out, ins, del, snd *fact.Instance
	var mem *memory
	if t.Delta != nil {
		d := sp.accumulators()
		err := t.Delta(local, state, m, System{sp: sp, x: x, j: [3]*fact.Instance{local, state, m}}, d)
		if err != nil {
			err = fmt.Errorf("transducer: insert-only form: %w", err)
		} else if out, err = checkTarget(d.Out, t.Schema.Out, "output"); err == nil {
			if ins, err = checkTarget(d.Ins, t.Schema.Mem, "insertion"); err == nil {
				snd, err = checkTarget(d.Snd, t.Schema.Msg, "send")
			}
		}
		if err != nil {
			delete(sp.mem, x)
			return StepResult{}, err
		}
		mem = sp.valid(x, state)
	} else {
		j := local.Union(state).Union(m)
		d := j.Union(sp.systemFacts(x, j))
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
			if res.OutNew == nil {
				res.OutNew = make([]fact.Fact, 0, out.Len())
			}
			res.OutNew = append(res.OutNew, fact.FromIDs(rel, args))
		}
		return true
	})
	fact.SortFacts(res.OutNew)
	for _, f := range res.OutNew {
		state.Add(f)
		mem.add(f.ArgIDs())
	}
	res.Changed = len(res.OutNew) > 0
	ins.EachIDs(func(rel fact.ID, args []fact.ID) bool {
		if state.AddIDs(rel, args) {
			res.Changed = true
			mem.add(args)
		}
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
