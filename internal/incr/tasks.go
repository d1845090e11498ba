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
	// accept filters valuations for exactly-once attribution (nil
	// admits all). It receives the matcher's live valuation — packed
	// atom keys only, nothing materialized — and must read only state
	// frozen for the phase.
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

func newHeadAcc() *headAcc {
	return &headAcc{m: make(map[string]*headEntry)}
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

func runTask(t pinTask, acc *headAcc) error {
	return t.view.Valuations(t.crule, t.pin, t.pinFacts, nil, func(v *datalog.Valuation) error {
		if t.accept != nil && !t.accept(v) {
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
}

// runTasks executes the tasks into one accumulator.
func runTasks(tasks []pinTask) (*headAcc, error) {
	acc := newHeadAcc()
	for _, t := range tasks {
		if err := runTask(t, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// groupByRel groups a wave's facts by relation, preserving slice order.
func groupByRel(wave []*headEntry) map[string][]fact.Fact {
	g := make(map[string][]fact.Fact)
	for _, e := range wave {
		g[e.f.Rel()] = append(g[e.f.Rel()], e.f)
	}
	return g
}

// keySet builds the packed-key set of a wave, probed by the accept
// filters with the matcher's scratch key bytes.
func keySet(wave []*headEntry) map[string]bool {
	s := make(map[string]bool, len(wave))
	for _, e := range wave {
		s[e.k] = true
	}
	return s
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
