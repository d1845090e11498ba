package incr

import (
	"slices"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// A pinTask is one unit of delta enumeration: evaluate rule with its
// pinned atom ranging over set's facts of the atom's relation against
// the phase's frozen view, keeping only the valuations accept admits.
// Tasks never mutate the materialization — a phase's enumerations fold
// into one headAcc whose entries are committed in sorted order at the
// phase barrier.
type pinTask struct {
	crule *datalog.CompiledRule
	pin   int
	set   *fact.Instance
	p     *pins
	// neg is the negated atom pinned (as the converted rule's atom pin),
	// or -1 for positive atom pin, of a rule of npos and nneg atoms.
	neg, npos, nneg int
}

// headEntry is one accumulated head fact with its derivation count.
type headEntry struct {
	f fact.Fact
	n int64
}

// headAcc counts derivations per ground head, found by its ids: per head
// relation and arity, a group scans its rows while it holds a few, then
// probes a fact.TupleIndex over them. A repeat head allocates nothing; a
// head becomes a Fact, over its row, when first seen.
type headAcc struct {
	gs  []headGroup
	one [1]headGroup // gs' first storage: a stratum's rules mostly share a head
}

type headGroup struct {
	rel  fact.ID
	args []fact.ID       // row r is entry r's tuple, never written once appended
	idx  fact.TupleIndex // zero while the group scans
	es   []headEntry
}

// put counts one derivation of the head rel(args); args is the
// matcher's scratch.
func (a *headAcc) put(rel fact.ID, args []fact.ID) {
	k := 0
	for k < len(a.gs) && (a.gs[k].rel != rel || a.gs[k].es[0].f.Arity() != len(args)) {
		k++
	}
	if k == len(a.gs) {
		if a.gs == nil {
			a.gs = a.one[:0]
		}
		a.gs = append(a.gs, headGroup{rel: rel, args: make([]fact.ID, 0, 4*len(args)), es: make([]headEntry, 0, 4)})
	}
	g := &a.gs[k]
	if len(g.es) == 8 && g.idx == (fact.TupleIndex{}) { // the ninth head: index the rows
		g.idx = fact.NewTupleIndex()
		for i, e := range g.es {
			g.idx.PutNew(e.f.ArgIDs(), g.args, int32(i))
		}
	}
	if g.idx != (fact.TupleIndex{}) {
		if i, added := g.idx.PutNew(args, g.args, int32(len(g.es))); !added {
			g.es[i].n++
			return
		}
	} else if i := slices.IndexFunc(g.es, func(e headEntry) bool { return slices.Equal(e.f.ArgIDs(), args) }); i >= 0 {
		g.es[i].n++
		return
	}
	g.args = append(g.args, args...)
	g.es = append(g.es, headEntry{f: fact.Alias(rel, g.args[len(g.args)-len(args):]), n: 1})
}

// runTasks empties the accumulator, executes the tasks into it and
// returns its entries in sorted fact order, the order every barrier
// commits in. The entries are the caller's: the next run starts new
// groups.
func (a *headAcc) runTasks(tasks []pinTask) ([]headEntry, error) {
	*a = headAcc{}
	for i := range tasks {
		t := &tasks[i]
		err := t.p.view.Valuations(t.crule, t.pin, t.set, nil, func(v *datalog.Valuation) error {
			if !t.accept(v) {
				return nil
			}
			rel, args, err := v.Head()
			if err == nil {
				a.put(rel, args)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if len(a.gs) == 0 {
		return nil, nil
	}
	es := a.gs[0].es
	for _, g := range a.gs[1:] {
		es = append(es, g.es...)
	}
	slices.SortFunc(es, func(x, y headEntry) int { return x.f.Compare(y.f) })
	return es, nil
}

// accept admits exactly the valuations the task counts, reading the
// matcher's live valuation atom by atom — ids, nothing materialized —
// against sets frozen for the phase.
func (t *pinTask) accept(v *datalog.Valuation) bool {
	p := t.p
	if t.neg < 0 {
		for k := 0; p.posSkipsNeg != nil && k < t.nneg; k++ {
			if p.posSkipsNeg.HasIDs(v.Neg(k)) {
				return false
			}
		}
		for j := 0; j < t.npos && (j < t.pin || p.posSkipsPos != nil); j++ {
			if j == t.pin {
				continue
			}
			rel, args := v.Pos(j)
			if (j < t.pin && p.pos.HasIDs(rel, args)) || (p.posSkipsPos != nil && p.posSkipsPos.HasIDs(rel, args)) {
				return false
			}
		}
		return true
	}
	// In the converted rule the pinned atom sits at pin, after the
	// rule's positive atoms; Neg(k) for k < neg still addresses the
	// rule's negated atom k.
	for j := 0; p.negSkipsPos != nil && j < t.pin; j++ {
		if p.negSkipsPos.HasIDs(v.Pos(j)) {
			return false
		}
	}
	for k := 0; k < t.neg; k++ {
		if p.neg.HasIDs(v.Neg(k)) {
			return false
		}
	}
	return true
}

// pins is one phase of the attribution rule: each valuation the phase
// gains or loses is counted once, at its first pinned position. It holds
// the view the phase joins against, the facts pinned at positive and at
// negated atoms, and the sets that make a pin skip a valuation another
// task counts:
//
//	phase        view  positive pins  negated pins  extra skips
//	delete seed  oldX  deleted        inserted      a positive pin skips any negated atom in ins: negated pins win
//	delete wave  oldX  the wave       —             a positive pin also skips another positive atom in del, or a negated atom in ins
//	insert seed  m.x   inserted       deleted       a negated pin skips any positive atom in ins: positive pins win
//	insert wave  m.x   the wave       —             —
//
// The sets are read when the tasks are built and run, not when the
// pins are: a seed row serves every stratum.
type pins struct {
	view     *datalog.IndexedInstance
	pos, neg *fact.Instance
	// A positive pin skips a valuation with another positive atom in
	// posSkipsPos or a negated atom in posSkipsNeg; a negated pin one
	// with a positive atom in negSkipsPos. nil skips nothing.
	posSkipsPos, posSkipsNeg, negSkipsPos *fact.Instance
}

// wavePins pins a wave's facts at positive atoms: waves only ever join
// positively, since a stratum never negates its own heads.
func wavePins(view *datalog.IndexedInstance, wave []headEntry) *pins {
	p := &pins{view: view, pos: fact.NewInstance()}
	for _, e := range wave {
		p.pos.Add(e.f)
	}
	return p
}

// tasks builds the phase's pinned joins over one stratum, one per atom
// whose relation has facts pinned, each admitting exactly the
// valuations attributed to it. No task means the phase has no work.
func (p *pins) tasks(s *stratum) []pinTask {
	var tasks []pinTask
	for ri, r := range s.rules {
		for i, rel := range s.pos[ri] {
			if p.pos.Count(rel, len(r.Pos[i].Args)) > 0 {
				tasks = append(tasks, pinTask{crule: s.crules[ri], pin: i, set: p.pos, p: p, neg: -1, npos: len(r.Pos), nneg: len(r.Neg)})
			}
		}
		for k, rel := range s.neg[ri] {
			if p.neg != nil && p.neg.Count(rel, len(r.Neg[k].Args)) > 0 {
				tasks = append(tasks, pinTask{crule: s.cneg[ri][k].c, pin: s.cneg[ri][k].pin, set: p.neg, p: p, neg: k})
			}
		}
	}
	return tasks
}

// convertNeg rewrites the rule so its k-th negated atom becomes a
// positive atom that can be pinned to a delta: the atom is appended to
// the positive body (so every variable it shares is join-checked) and
// dropped from the guards. Pinning the converted atom's position to
// facts leaving (entering) the instance enumerates exactly the
// valuations the negation admits after (blocked before) the change.
// In the converted rule's valuations, Pos(len(r.Pos)) addresses the
// pinned atom and Neg(k2) for k2 < k still addresses r.Neg[k2].
func convertNeg(r datalog.Rule, k int) (datalog.Rule, int) {
	conv := datalog.Rule{Head: r.Head, Ineq: r.Ineq}
	conv.Pos = append(append([]datalog.Atom{}, r.Pos...), r.Neg[k])
	conv.Neg = append(append([]datalog.Atom{}, r.Neg[:k]...), r.Neg[k+1:]...)
	return conv, len(r.Pos)
}
