package incr

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/obs"
)

// This file is the maintenance algorithm. One Apply runs, per stratum
// in order: a deletion phase (exact-counting cascade on non-recursive
// strata, DRed on recursive ones), an insertion phase (semi-naive
// delta propagation with support counting), and — after the insertion
// phase, for DRed strata — a support recount over the over-deleted
// cone, since DRed discards counts instead of maintaining them.
//
// Exactly-once attribution. Support counts are exact, so every
// gained/lost derivation must be counted exactly once even though a
// valuation can contain several delta facts. The discipline: a
// valuation is attributed to the FIRST body position holding a
// current-delta fact — pinned-join tasks at position i skip any
// valuation whose earlier position j < i also grounds into the delta
// (and, for mixed pos/neg deltas, pos pins win over neg pins). Waves
// of a cascade use the same rule against the wave's fact set, with
// facts from previously committed waves excluded entirely (they were
// attributed when their wave ran).
//
// Determinism. All enumeration happens against views frozen for the
// phase (the index frozen before the apply for deletions, the current
// materialization for insertions); results fold into commutative
// per-worker accumulators and every mutation is applied in sorted
// fact order at a barrier. Serial and parallel modes therefore
// produce identical materializations, support tables, and event
// streams.

// applyState carries one Apply's delta bookkeeping across strata:
// the pre-update view and the committed fact flow (everything
// inserted/removed so far, keyed by packed fact key and grouped by
// relation), which later strata pin their seed joins to. The packed
// keys let accept filters probe the sets with the matcher's scratch
// key bytes — no fact materialization, no allocation.
type applyState struct {
	st       ApplyStats
	oldX     *datalog.IndexedInstance
	insSet   map[string]bool
	delSet   map[string]bool
	insByRel map[string][]fact.Fact
	delByRel map[string][]fact.Fact
}

func newApplyState() *applyState {
	return &applyState{
		insSet:   make(map[string]bool),
		delSet:   make(map[string]bool),
		insByRel: make(map[string][]fact.Fact),
		delByRel: make(map[string][]fact.Fact),
	}
}

func (a *applyState) ins(f fact.Fact) {
	a.insSet[f.PackedKey()] = true
	a.insByRel[f.Rel()] = append(a.insByRel[f.Rel()], f)
}

func (a *applyState) del(f fact.Fact) {
	a.delSet[f.PackedKey()] = true
	a.delByRel[f.Rel()] = append(a.delByRel[f.Rel()], f)
}

// stratumStats is the per-stratum event payload.
type stratumStats struct {
	alg         string
	overdeleted int
	rederived   int
	added       int
	removed     int
	recounts    int
}

func (sb *stratumStats) any() bool {
	return sb.overdeleted > 0 || sb.rederived > 0 || sb.added > 0 || sb.removed > 0 || sb.recounts > 0
}

// Apply incrementally maintains the materialization under the delta
// and returns what it did. The delta is netted first (retracting an
// absent fact or inserting a present one is a no-op); a no-op delta
// returns zero stats without touching anything. A non-nil error from
// the maintenance phases (as opposed to delta validation) marks the
// materialization corrupt and every later call fails fast.
func (m *Materialization) Apply(d Delta) (ApplyStats, error) {
	if m.corrupt != nil {
		return ApplyStats{}, m.corrupt
	}
	ins, ret, err := m.netDelta(d)
	if err != nil {
		return ApplyStats{}, err
	}
	if len(ins) == 0 && len(ret) == 0 {
		return ApplyStats{}, nil
	}
	defer m.opts.Reg.Span(obs.IncrApplyNs)()

	a := newApplyState()
	// The deletion phases join "what held before" — freeze the index,
	// which copies nothing, when anything can be lost: a retraction, or
	// (with negation anywhere in the program) an insertion into a negated
	// relation.
	if len(ret) > 0 || (m.hasNeg && len(ins) > 0) {
		a.oldX = m.x.Freeze()
	}
	for _, f := range ret {
		m.base.Remove(f)
		a.del(f)
	}
	m.x.RemoveAll(ret)
	for _, f := range ins {
		m.base.Add(f)
		m.x.Add(f)
		a.ins(f)
	}
	a.st.BaseInserted, a.st.BaseRetracted = len(ins), len(ret)
	m.seq++

	fail := func(err error) (ApplyStats, error) {
		m.corrupt = fmt.Errorf("incr: materialization corrupt after failed apply %d: %w", m.seq, err)
		return a.st, m.corrupt
	}
	for si := range m.strata {
		s := &m.strata[si]
		sb := stratumStats{alg: "count"}
		var cone map[string]fact.Fact
		if m.deletionWork(s, a) {
			if s.recursive {
				sb.alg = "dred"
				cone, err = m.dredDelete(s, a, &sb)
			} else {
				err = m.countingDelete(s, a, &sb)
			}
			if err != nil {
				return fail(err)
			}
		}
		if m.insertionWork(s, a) {
			if err := m.insertPropagate(s, a, &sb); err != nil {
				return fail(err)
			}
		}
		if len(cone) > 0 {
			if err := m.recount(cone, a, &sb); err != nil {
				return fail(err)
			}
		}
		if sb.any() {
			a.st.Overdeleted += sb.overdeleted
			a.st.Rederived += sb.rederived
			a.st.DerivedAdded += sb.added
			a.st.DerivedRemoved += sb.removed
			a.st.Recounts += sb.recounts
			m.emitStratum(si, &sb)
		}
	}
	for rel, fs := range a.delByRel {
		m.record(rel, fs, false)
	}
	for rel, fs := range a.insByRel {
		m.record(rel, fs, true)
	}
	m.publishApply(&a.st)
	return a.st, nil
}

// ApplyTraced is Apply with a trace context: the maintenance run is
// recorded as one incr.apply span stamped with the resulting sequence
// number and the (deterministic) apply stats. The serving core's
// writer uses it so a request trace reaches all the way into view
// maintenance; with a disabled context it is exactly Apply.
func (m *Materialization) ApplyTraced(d Delta, tc obs.SpanCtx) (ApplyStats, error) {
	if !tc.Enabled() {
		return m.Apply(d)
	}
	sp := tc.Start(obs.SpanIncrApply)
	st, err := m.Apply(d)
	sp.SetSeq(m.seq)
	sp.Attr("inserted", st.BaseInserted).Attr("retracted", st.BaseRetracted)
	sp.Attr("added", st.DerivedAdded).Attr("removed", st.DerivedRemoved)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.Finish()
	return st, err
}

// Check validates the delta against a program, given as its idb
// relations and its schema: every fact passes checkBaseFact, and no
// fact appears on both sides. It is the whole of Apply's validation and
// reads no state, so a caller that must refuse a bad delta before it
// commits to anything — the cluster router, before its log append —
// runs it up front and answers with exactly the error Apply would.
func (d Delta) Check(idb, schema fact.Schema) error {
	retracted := make(map[string]bool, len(d.Retract))
	for _, f := range d.Retract {
		if err := checkBaseFact(idb, schema, f); err != nil {
			return err
		}
		retracted[f.PackedKey()] = true
	}
	for _, f := range d.Insert {
		if err := checkBaseFact(idb, schema, f); err != nil {
			return err
		}
		if retracted[f.PackedKey()] {
			return fmt.Errorf("incr: %v appears in both insert and retract of one delta", f)
		}
	}
	return nil
}

// netDelta validates and nets the delta down to actual base changes,
// returned in sorted fact order.
func (m *Materialization) netDelta(d Delta) (ins, ret []fact.Fact, err error) {
	if err := d.Check(m.idb, m.schema); err != nil {
		return nil, nil, err
	}
	retM := make(map[string]fact.Fact, len(d.Retract))
	for _, f := range d.Retract {
		retM[f.PackedKey()] = f
	}
	insM := make(map[string]fact.Fact, len(d.Insert))
	for _, f := range d.Insert {
		insM[f.PackedKey()] = f
	}
	for k, f := range retM {
		if !m.base.Has(f) {
			delete(retM, k)
		}
	}
	for k, f := range insM {
		if m.base.Has(f) {
			delete(insM, k)
		}
	}
	return sortFactMap(insM), sortFactMap(retM), nil
}

func sortFactMap(fm map[string]fact.Fact) []fact.Fact {
	fs := make([]fact.Fact, 0, len(fm))
	for _, f := range fm {
		fs = append(fs, f)
	}
	fact.SortFacts(fs)
	return fs
}

func relsIntersect(rels map[string]bool, byRel map[string][]fact.Fact) bool {
	for rel, fs := range byRel {
		if rels[rel] && len(fs) > 0 {
			return true
		}
	}
	return false
}

// deletionWork reports whether the stratum can lose derivations:
// something it joins positively was removed, or something it negates
// was added.
func (m *Materialization) deletionWork(s *stratum, a *applyState) bool {
	return relsIntersect(s.posRels, a.delByRel) || relsIntersect(s.negRels, a.insByRel)
}

// insertionWork reports whether the stratum can gain derivations:
// something it joins positively was added, or something it negates
// was removed.
func (m *Materialization) insertionWork(s *stratum, a *applyState) bool {
	return relsIntersect(s.posRels, a.insByRel) || relsIntersect(s.negRels, a.delByRel)
}

// deleteSeedTasks builds the pinned joins enumerating, against the
// pre-update view, every valuation of a stratum rule that held before
// the apply and is destroyed by the committed delta — each valuation
// admitted by exactly one task.
//
// Attribution priority: NEG pins win. A lost valuation whose negated
// atom grounds into an inserted fact is counted at its first such neg
// position, and every pos pin — seed or cascade wave — skips it. The
// priority must be this way around: pos-side deaths accumulate wave
// by wave, so a seed cannot yet know that a pos fact will die, but
// the inserted facts of lower strata are all committed before the
// stratum's deletion phase starts, so insSet membership of neg
// grounds is already final. (Were pos pins to win, a valuation lost
// both ways would be counted at the neg seed AND again when its pos
// fact dies in a later wave.)
func (m *Materialization) deleteSeedTasks(s *stratum, a *applyState) []pinTask {
	var tasks []pinTask
	for ri, r := range s.rules {
		for i, at := range r.Pos {
			pinFacts := a.delByRel[at.Rel]
			if len(pinFacts) == 0 {
				continue
			}
			i := i
			nneg := len(r.Neg)
			tasks = append(tasks, pinTask{
				crule: s.crules[ri], pin: i, pinFacts: pinFacts, view: a.oldX,
				accept: func(v *datalog.Valuation) bool {
					for k := 0; k < nneg; k++ {
						if a.insSet[string(v.NegKey(k))] {
							return false
						}
					}
					for j := 0; j < i; j++ {
						if a.delSet[string(v.PosKey(j))] {
							return false
						}
					}
					return true
				},
			})
		}
		for k, at := range r.Neg {
			pinFacts := a.insByRel[at.Rel]
			if len(pinFacts) == 0 {
				continue
			}
			k := k
			nc := s.cneg[ri][k]
			pin := nc.pin
			tasks = append(tasks, pinTask{
				crule: nc.c, pin: pin, pinFacts: pinFacts, view: a.oldX,
				accept: func(v *datalog.Valuation) bool {
					// A pinned fact that was deleted and re-added this
					// apply was present before — the valuation was
					// already blocked, nothing is lost. PosKey(pin) is
					// the converted r.Neg[k].
					if a.delSet[string(v.PosKey(pin))] {
						return false
					}
					for k2 := 0; k2 < k; k2++ {
						if a.insSet[string(v.NegKey(k2))] {
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

// insertSeedTasks is the mirror image against the current view:
// valuations that hold now and contain a committed-delta change — a
// newly inserted positive fact, or a negated atom grounding into a
// removed fact.
func (m *Materialization) insertSeedTasks(s *stratum, a *applyState) []pinTask {
	var tasks []pinTask
	for ri, r := range s.rules {
		for i, at := range r.Pos {
			pinFacts := a.insByRel[at.Rel]
			if len(pinFacts) == 0 {
				continue
			}
			i := i
			tasks = append(tasks, pinTask{
				crule: s.crules[ri], pin: i, pinFacts: pinFacts, view: m.x,
				accept: func(v *datalog.Valuation) bool {
					for j := 0; j < i; j++ {
						if a.insSet[string(v.PosKey(j))] {
							return false
						}
					}
					return true
				},
			})
		}
		for k, at := range r.Neg {
			pinFacts := a.delByRel[at.Rel]
			if len(pinFacts) == 0 {
				continue
			}
			k := k
			nc := s.cneg[ri][k]
			pin := nc.pin
			tasks = append(tasks, pinTask{
				crule: nc.c, pin: pin, pinFacts: pinFacts, view: m.x,
				accept: func(v *datalog.Valuation) bool {
					// A pinned fact that was re-added after deletion is
					// present again — the valuation is still blocked,
					// nothing is gained. PosKey(pin) is the converted
					// r.Neg[k]; j < pin ranges over r.Pos.
					if a.insSet[string(v.PosKey(pin))] {
						return false
					}
					for j := 0; j < pin; j++ {
						if a.insSet[string(v.PosKey(j))] {
							return false
						}
					}
					for k2 := 0; k2 < k; k2++ {
						if a.delSet[string(v.NegKey(k2))] {
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

// insertWaveTasks pins this stratum's newly derived facts: waves only
// ever join positively (a stratum never negates its own heads), and
// attribution is first-wave-position with committed-delta facts
// excluded implicitly (a valuation through one was counted at its
// seed or earlier wave — see the accept filter in insertSeedTasks,
// whose insSet grows as waves commit).
func (m *Materialization) insertWaveTasks(s *stratum, wave []fact.Fact, waveSet map[string]bool) []pinTask {
	waveByRel := groupByRel(wave)
	var tasks []pinTask
	for ri, r := range s.rules {
		for i, at := range r.Pos {
			pinFacts := waveByRel[at.Rel]
			if len(pinFacts) == 0 {
				continue
			}
			i := i
			tasks = append(tasks, pinTask{
				crule: s.crules[ri], pin: i, pinFacts: pinFacts, view: m.x,
				accept: func(v *datalog.Valuation) bool {
					for j := 0; j < i; j++ {
						if waveSet[string(v.PosKey(j))] {
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

// insertPropagate runs semi-naive delta insertion with support
// counting: seeds from the committed delta, then waves of newly
// derived facts until none appear. New facts are committed to the
// apply's insert flow so later strata see them.
func (m *Materialization) insertPropagate(s *stratum, a *applyState, sb *stratumStats) error {
	acc, err := m.runTasks(m.insertSeedTasks(s, a))
	if err != nil {
		return err
	}
	for {
		wave := m.applyIncrements(acc, a, sb)
		if len(wave) == 0 {
			return nil
		}
		acc, err = m.runTasks(m.insertWaveTasks(s, wave, keySet(wave)))
		if err != nil {
			return err
		}
	}
}

// applyIncrements commits one wave of gained derivations in sorted
// order: existing facts gain support; new facts enter the
// materialization and form the next wave.
func (m *Materialization) applyIncrements(acc *headAcc, a *applyState, sb *stratumStats) []fact.Fact {
	var wave []fact.Fact
	for _, e := range acc.entries() {
		f, n := e.f, e.n
		k := f.PackedKey()
		a.st.SupportIncrements += n
		if m.x.Has(f) {
			m.support[k] += n
			continue
		}
		m.x.Add(f)
		m.support[k] = n
		wave = append(wave, f)
		sb.added++
		a.ins(f)
	}
	return wave
}

// deleteWaveTasks pins a wave of facts that just died, joining against
// the pre-update view. Valuations through facts of previously
// committed deletions were attributed there and are skipped at any
// position; within the wave, first-position attribution applies.
func (m *Materialization) deleteWaveTasks(s *stratum, a *applyState, wave []fact.Fact, waveSet map[string]bool) []pinTask {
	waveByRel := groupByRel(wave)
	var tasks []pinTask
	for ri, r := range s.rules {
		for i, at := range r.Pos {
			pinFacts := waveByRel[at.Rel]
			if len(pinFacts) == 0 {
				continue
			}
			i := i
			npos, nneg := len(r.Pos), len(r.Neg)
			tasks = append(tasks, pinTask{
				crule: s.crules[ri], pin: i, pinFacts: pinFacts, view: a.oldX,
				accept: func(v *datalog.Valuation) bool {
					for k := 0; k < nneg; k++ {
						if a.insSet[string(v.NegKey(k))] {
							return false
						}
					}
					for j := 0; j < npos; j++ {
						if j == i {
							continue
						}
						if a.delSet[string(v.PosKey(j))] {
							return false
						}
						if j < i && waveSet[string(v.PosKey(j))] {
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

// countingDelete maintains a non-recursive stratum under deletions by
// exact support counting: enumerate lost derivations against the
// pre-update view, decrement, and cascade facts whose count reaches
// zero. Soundness rests on acyclicity — within the stratum no fact's
// support can depend on itself, so "count reaches zero" is exactly
// "no derivation remains".
func (m *Materialization) countingDelete(s *stratum, a *applyState, sb *stratumStats) error {
	lost, err := m.runTasks(m.deleteSeedTasks(s, a))
	if err != nil {
		return err
	}
	for {
		wave, err := m.applyDecrements(lost, a, sb)
		if err != nil {
			return err
		}
		if len(wave) == 0 {
			return nil
		}
		// Enumerate the wave's consequences before committing the wave
		// to the delta flow: the wave's own tasks must still see these
		// facts as "current wave", not "already attributed".
		lost, err = m.runTasks(m.deleteWaveTasks(s, a, wave, keySet(wave)))
		if err != nil {
			return err
		}
		for _, f := range wave {
			a.del(f)
		}
	}
}

// applyDecrements commits one wave of lost derivations in sorted
// order. A support underflow is impossible by the attribution
// invariant (total decrements = lost derivations ≤ support), so
// hitting one means the engine is corrupt and the error says so
// loudly.
func (m *Materialization) applyDecrements(lost *headAcc, a *applyState, sb *stratumStats) ([]fact.Fact, error) {
	var wave []fact.Fact
	for _, e := range lost.entries() {
		f, n := e.f, e.n
		k := f.PackedKey()
		cur, ok := m.support[k]
		if !ok || cur < n {
			return nil, fmt.Errorf("incr: support underflow on %v: have %d, lost %d derivations", f, cur, n)
		}
		a.st.SupportDecrements += n
		if cur > n {
			m.support[k] = cur - n
			continue
		}
		delete(m.support, k)
		wave = append(wave, f)
		sb.removed++
	}
	m.x.RemoveAll(wave)
	return wave, nil
}

// dredDelete maintains a recursive stratum by delete–rederive:
// over-delete the full cone of facts with some derivation through the
// deleted inputs (support counts are useless here — cyclic support
// can keep a dead fact alive), then rederive survivors bottom-up from
// what remains. Returns the cone so Apply can recount supports after
// the insertion phase.
func (m *Materialization) dredDelete(s *stratum, a *applyState, sb *stratumStats) (map[string]fact.Fact, error) {
	cone := make(map[string]fact.Fact)
	var dlist []fact.Fact
	collect := func(acc *headAcc) []fact.Fact {
		var wave []fact.Fact
		for _, f := range acc.sortedFacts() {
			k := f.PackedKey()
			if _, ok := cone[k]; ok {
				continue
			}
			cone[k] = f
			dlist = append(dlist, f)
			wave = append(wave, f)
		}
		return wave
	}
	acc, err := m.runTasks(m.deleteSeedTasks(s, a))
	if err != nil {
		return nil, err
	}
	wave := collect(acc)
	for len(wave) > 0 {
		// Cone expansion needs no attribution filters: the cone is a
		// set, and over-collection is deduplicated right here.
		waveByRel := groupByRel(wave)
		var tasks []pinTask
		for ri, r := range s.rules {
			for i, at := range r.Pos {
				if pinFacts := waveByRel[at.Rel]; len(pinFacts) > 0 {
					tasks = append(tasks, pinTask{crule: s.crules[ri], pin: i, pinFacts: pinFacts, view: a.oldX})
				}
			}
		}
		if acc, err = m.runTasks(tasks); err != nil {
			return nil, err
		}
		wave = collect(acc)
	}

	m.x.RemoveAll(dlist)
	for _, f := range dlist {
		delete(m.support, f.PackedKey())
	}
	sb.overdeleted = len(dlist)

	// Rederivation pass 1: batch-frozen derivability check of every
	// cone fact against the remainder — independent reads, so parallel
	// mode fans them out; the adds happen after the pass in sorted
	// order either way.
	fact.SortFacts(dlist)
	alive := make([]bool, len(dlist))
	if err := datalog.ParallelEach(m.workers, len(dlist), func(_, i int) error {
		ok, err := m.derivable(dlist[i])
		alive[i] = ok
		return err
	}); err != nil {
		return nil, err
	}
	var back []fact.Fact
	for i, f := range dlist {
		if alive[i] {
			m.x.Add(f)
			back = append(back, f)
			sb.rederived++
		}
	}
	// Waves: a rederived fact can witness derivations of other cone
	// members; any such head is derivable from the current view by
	// construction, so it comes straight back.
	for len(back) > 0 {
		waveByRel := groupByRel(back)
		var tasks []pinTask
		for ri, r := range s.rules {
			for i, at := range r.Pos {
				if pinFacts := waveByRel[at.Rel]; len(pinFacts) > 0 {
					tasks = append(tasks, pinTask{crule: s.crules[ri], pin: i, pinFacts: pinFacts, view: m.x})
				}
			}
		}
		acc, err := m.runTasks(tasks)
		if err != nil {
			return nil, err
		}
		back = back[:0]
		for _, f := range acc.sortedFacts() {
			if _, inCone := cone[f.PackedKey()]; !inCone || m.x.Has(f) {
				continue
			}
			m.x.Add(f)
			back = append(back, f)
			sb.rederived++
		}
	}

	for _, f := range dlist {
		if !m.x.Has(f) {
			a.del(f)
			sb.removed++
		}
	}
	return cone, nil
}

// recount rebuilds exact support counts for the cone facts that
// survived (or were re-added by the insertion phase) — DRed tracks
// the fact set, not the counts, so they are recomputed from the final
// materialization.
func (m *Materialization) recount(cone map[string]fact.Fact, a *applyState, sb *stratumStats) error {
	fs := sortFactMap(cone)
	counts := make([]int64, len(fs))
	if err := datalog.ParallelEach(m.workers, len(fs), func(_, i int) error {
		f := fs[i]
		if !m.x.Has(f) {
			return nil
		}
		n, err := m.countDerivations(f)
		if err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf("incr: recount found no derivation for materialized fact %v", f)
		}
		counts[i] = n
		return nil
	}); err != nil {
		return err
	}
	for i, f := range fs {
		if counts[i] > 0 {
			m.support[f.PackedKey()] = counts[i]
			sb.recounts++
		}
	}
	return nil
}
