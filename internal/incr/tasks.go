package incr

import (
	"sort"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// A pinTask is one unit of delta enumeration: evaluate rule with its
// pinned atom ranging over pinFacts against a frozen view, keeping
// only valuations the accept filter admits. Tasks never mutate the
// materialization — a phase's enumerations fold into one headAcc whose
// entries are committed in sorted order at the phase barrier.
type pinTask struct {
	crule    *datalog.CompiledRule
	pin      int
	pinFacts []fact.Fact
	view     *datalog.IndexedInstance
	// accept filters valuations for exactly-once attribution (pins.tasks
	// builds it). It receives the matcher's live valuation — packed atom
	// keys only, nothing materialized — and must read only state frozen
	// for the phase.
	accept func(v *datalog.Valuation) bool
}

// headEntry is one accumulated head fact with its packed key and its
// derivation count.
type headEntry struct {
	f fact.Fact
	k string
	n int64
}

// headAcc accumulates derivation counts per ground head fact, keyed by
// the head's packed key. Repeat heads cost one map probe and no
// allocation; the fact is materialized only the first time a key is
// seen.
type headAcc struct {
	m map[string]*headEntry
}

// entries returns the accumulated entries with their facts in sorted
// order. Packed keys sort in process-dependent interning order, so all
// observable ordering goes through fact.SortFacts instead.
func (a *headAcc) entries() []*headEntry {
	es := make([]*headEntry, 0, len(a.m))
	for _, e := range a.m {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].f.Compare(es[j].f) < 0 })
	return es
}

// runTasks executes the tasks into one accumulator.
func runTasks(tasks []pinTask) (*headAcc, error) {
	acc := &headAcc{m: make(map[string]*headEntry)}
	for _, t := range tasks {
		err := t.view.Valuations(t.crule, t.pin, t.pinFacts, nil, func(v *datalog.Valuation) error {
			if !t.accept(v) {
				return nil
			}
			k := v.HeadKey()
			if e, ok := acc.m[string(k)]; ok {
				e.n++
				return nil
			}
			h, err := v.Head()
			if err != nil {
				return err
			}
			e := &headEntry{f: h, k: string(k), n: 1}
			acc.m[e.k] = e
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// pins is one phase of the attribution rule: each valuation the phase
// gains or loses is counted once, at its first pinned position. It holds
// the view the phase joins against, the facts pinned at positive and at
// negated atoms (by relation, and as a packed-key set each), and the
// sets that make a pin skip a valuation another task counts:
//
//	phase        view  positive pins  negated pins  extra skips
//	delete seed  oldX  deleted        inserted      a positive pin skips any negated atom in insSet: negated pins win
//	delete wave  oldX  the wave       —             a positive pin also skips another positive atom in delSet, or a negated atom in insSet
//	insert seed  m.x   inserted       deleted       a negated pin skips any positive atom in insSet: positive pins win
//	insert wave  m.x   the wave       —             —
//
// The sets are read when the tasks run, not when they are built.
type pins struct {
	view           *datalog.IndexedInstance
	pos, neg       map[string][]fact.Fact
	posSet, negSet map[string]bool
	// A positive pin skips a valuation with another positive atom in
	// posSkipsPos or a negated atom in posSkipsNeg; a negated pin one
	// with a positive atom in negSkipsPos. nil skips nothing.
	posSkipsPos, posSkipsNeg, negSkipsPos map[string]bool
}

// wavePins pins a wave's facts at positive atoms: waves only ever join
// positively, since a stratum never negates its own heads.
func wavePins(view *datalog.IndexedInstance, wave []*headEntry) *pins {
	p := &pins{view: view, pos: make(map[string][]fact.Fact), posSet: make(map[string]bool, len(wave))}
	for _, e := range wave {
		p.pos[e.f.Rel()] = append(p.pos[e.f.Rel()], e.f)
		p.posSet[e.k] = true
	}
	return p
}

// tasks builds the phase's pinned joins over one stratum, one per atom
// whose relation has facts pinned, each admitting exactly the
// valuations attributed to it. No task means the phase has no work.
func (p *pins) tasks(s *stratum) []pinTask {
	var tasks []pinTask
	for ri, r := range s.rules {
		npos, nneg := len(r.Pos), len(r.Neg)
		for i, at := range r.Pos {
			fs := p.pos[at.Rel]
			if len(fs) == 0 {
				continue
			}
			tasks = append(tasks, pinTask{
				crule: s.crules[ri], pin: i, pinFacts: fs, view: p.view,
				accept: func(v *datalog.Valuation) bool {
					for k := 0; p.posSkipsNeg != nil && k < nneg; k++ {
						if p.posSkipsNeg[string(v.NegKey(k))] {
							return false
						}
					}
					for j := 0; j < npos && (j < i || p.posSkipsPos != nil); j++ {
						if j == i {
							continue
						}
						key := v.PosKey(j)
						if (j < i && p.posSet[string(key)]) || p.posSkipsPos[string(key)] {
							return false
						}
					}
					return true
				},
			})
		}
		for k, at := range r.Neg {
			fs := p.neg[at.Rel]
			if len(fs) == 0 {
				continue
			}
			// In the converted rule the pinned atom sits at nc.pin, after
			// r.Pos; NegKey(k2) for k2 < k still addresses r.Neg[k2].
			nc := s.cneg[ri][k]
			tasks = append(tasks, pinTask{
				crule: nc.c, pin: nc.pin, pinFacts: fs, view: p.view,
				accept: func(v *datalog.Valuation) bool {
					for j := 0; p.negSkipsPos != nil && j < nc.pin; j++ {
						if p.negSkipsPos[string(v.PosKey(j))] {
							return false
						}
					}
					for k2 := 0; k2 < k; k2++ {
						if p.negSet[string(v.NegKey(k2))] {
							return false
						}
					}
					return true
				},
			})
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
// In the converted rule's valuations, PosKey(len(r.Pos)) addresses the
// pinned atom and NegKey(k2) for k2 < k still addresses r.Neg[k2].
func convertNeg(r datalog.Rule, k int) (datalog.Rule, int) {
	conv := datalog.Rule{Head: r.Head, Ineq: r.Ineq}
	conv.Pos = append(append([]datalog.Atom{}, r.Pos...), r.Neg[k])
	conv.Neg = append(append([]datalog.Atom{}, r.Neg[:k]...), r.Neg[k+1:]...)
	return conv, len(r.Pos)
}
