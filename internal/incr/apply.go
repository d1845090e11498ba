package incr

import (
	"fmt"
	"math"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/obs"
)

// This file is the maintenance algorithm. One Apply runs, per stratum
// in order: a deletion phase (a cascade of exact support decrements in
// which a fact dies when its count reaches zero or, in a recursive
// component, when no derivation over lower ranks is left to vouch for
// it) and an insertion phase (semi-naive delta propagation with
// support counting, seeded also with the facts the deletion phase
// removed while their count was still positive).
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
// materialization for insertions); results fold into a per-phase
// accumulator and every mutation is applied in sorted fact order at a
// barrier, so materializations, support tables, and event streams are
// a function of the update history alone.

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

// ins and del commit a fact, under its packed key, to the flow.
func (a *applyState) ins(f fact.Fact, k string) {
	a.insSet[k] = true
	a.insByRel[f.Rel()] = append(a.insByRel[f.Rel()], f)
}

func (a *applyState) del(f fact.Fact, k string) {
	a.delSet[k] = true
	a.delByRel[f.Rel()] = append(a.delByRel[f.Rel()], f)
}

// stratumStats is the per-stratum event payload.
type stratumStats struct {
	overdeleted int
	rederived   int
	kept        int
	added       int
	removed     int
}

func (sb *stratumStats) any() bool {
	return sb.overdeleted > 0 || sb.rederived > 0 || sb.kept > 0 || sb.added > 0 || sb.removed > 0
}

// Apply incrementally maintains the materialization under the delta
// and returns what it did. The delta is netted first (retracting an
// absent fact or inserting a present one is a no-op); a no-op delta
// returns zero stats without touching anything. A non-nil error from
// the maintenance phases (as opposed to delta validation) marks the
// materialization corrupt and every later call fails fast.
func (m *Materialization) Apply(d Delta) (ApplyStats, error) {
	return m.ApplyTraced(d, obs.SpanCtx{})
}

// ApplyTraced is Apply with a trace context: the call is one incr.apply
// span, stamped with the resulting sequence number and the
// (deterministic) apply stats, which also times it into incr.apply_ns.
// The serving core's writer uses it so a request trace reaches all the
// way into view maintenance; Apply is ApplyTraced on a disabled
// context.
func (m *Materialization) ApplyTraced(d Delta, tc obs.SpanCtx) (ApplyStats, error) {
	sp := tc.Start(obs.SpanIncrApply, m.opts.Reg.Latency(obs.IncrApplyNs))
	st, err := m.apply(d)
	sp.SetSeq(m.seq)
	sp.Attr("inserted", st.BaseInserted).Attr("retracted", st.BaseRetracted)
	sp.Attr("added", st.DerivedAdded).Attr("removed", st.DerivedRemoved)
	sp.Attr("overdeleted", st.Overdeleted).Attr("rederived", st.Rederived).Attr("kept", st.Kept)
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.Finish()
	return st, err
}

func (m *Materialization) apply(d Delta) (ApplyStats, error) {
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
		a.del(f, f.PackedKey())
	}
	m.x.RemoveAll(ret)
	for _, f := range ins {
		m.base.Add(f)
		m.x.Add(f)
		a.ins(f, f.PackedKey())
	}
	a.st.BaseInserted, a.st.BaseRetracted = len(ins), len(ret)
	m.seq++

	fail := func(err error) (ApplyStats, error) {
		m.corrupt = fmt.Errorf("incr: materialization corrupt after failed apply %d: %w", m.seq, err)
		return a.st, m.corrupt
	}
	for si := range m.strata {
		s := &m.strata[si]
		var sb stratumStats
		var dead, back []*headEntry
		if m.deletionWork(s, a) {
			if dead, back, err = m.deletePropagate(s, a, &sb); err != nil {
				return fail(err)
			}
		}
		if len(back) > 0 || m.insertionWork(s, a) {
			if err := m.insertPropagate(s, a, &sb, back); err != nil {
				return fail(err)
			}
		}
		// A dead fact the insertion phase brought back was there before
		// the apply and is there after it: it leaves the deleted set, and
		// only the others join the flow later strata see.
		for _, e := range dead {
			if _, held := m.derived[e.k]; held {
				delete(a.delSet, e.k)
				sb.rederived++
				continue
			}
			a.delByRel[e.f.Rel()] = append(a.delByRel[e.f.Rel()], e.f)
			sb.removed++
		}
		if sb.any() {
			a.st.Overdeleted += sb.overdeleted
			a.st.Rederived += sb.rederived
			a.st.Kept += sb.kept
			a.st.DerivedAdded += sb.added
			a.st.DerivedRemoved += sb.removed
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
					// j < pin ranges over r.Pos; the pinned atom, the
					// converted r.Neg[k], sits at pin.
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
// seed or earlier wave, which ran before this wave's facts existed).
func (m *Materialization) insertWaveTasks(s *stratum, wave []*headEntry) []pinTask {
	waveByRel, waveSet := groupByRel(wave), keySet(wave)
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
// counting: seeds from the committed delta and from back, the facts the
// deletion phase removed with derivations to spare, then waves of newly
// derived facts until none appear. New facts are committed to the
// apply's insert flow so later strata see them.
func (m *Materialization) insertPropagate(s *stratum, a *applyState, sb *stratumStats, back []*headEntry) error {
	acc, err := runTasks(m.insertSeedTasks(s, a))
	if err != nil {
		return err
	}
	for {
		wave, err := m.applyIncrements(acc, back, a, sb)
		if len(wave) == 0 || err != nil {
			return err
		}
		back = nil
		if acc, err = runTasks(m.insertWaveTasks(s, wave)); err != nil {
			return err
		}
	}
}

// applyIncrements commits one wave of gained derivations in sorted
// order, under a fresh tick of the clock: existing facts gain support;
// new facts enter the materialization with the tick as their rank and,
// after the returning ones, form the next wave. A returning fact's
// count is the derivations it never lost, all of them over facts that
// were never removed, which is what the fresh rank promises. A fact
// the deletion phase removed is not new to later strata, whichever way
// it returns. A count that outgrows its 32 bits fails the apply.
func (m *Materialization) applyIncrements(acc *headAcc, back []*headEntry, a *applyState, sb *stratumStats) ([]*headEntry, error) {
	rank := m.tick()
	wave := back
	for _, e := range back {
		m.x.Add(e.f)
		d := m.derived[e.k]
		d.rank = rank
		m.derived[e.k] = d
	}
	for _, e := range acc.entries() {
		a.st.SupportIncrements += e.n
		d, held := m.derived[e.k]
		if e.n > math.MaxUint32-int64(d.n) {
			return nil, fmt.Errorf("incr: support overflow on %v: have %d, gained %d derivations", e.f, d.n, e.n)
		}
		if !held {
			m.x.Add(e.f)
			d.rank = rank
			wave = append(wave, e)
			if !a.delSet[e.k] {
				sb.added++
				a.ins(e.f, e.k)
			}
		}
		d.n += uint32(e.n)
		m.derived[e.k] = d
	}
	return wave, nil
}

// deleteWaveTasks pins a wave of facts that just died, joining against
// the pre-update view. Valuations through facts of previously
// committed deletions were attributed there and are skipped at any
// position; within the wave, first-position attribution applies.
func (m *Materialization) deleteWaveTasks(s *stratum, a *applyState, wave []*headEntry) []pinTask {
	waveByRel, waveSet := groupByRel(wave), keySet(wave)
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

// deletePropagate maintains a stratum under lost derivations: enumerate
// them against the pre-update view, decrement, and cascade the facts
// that die, wave by wave, each leaving the materialization with its
// wave. It returns the dead and, among them, those to come back. Counts
// stay exact for the dead too, so when the cascade stops one whose count
// is positive still has a derivation over facts that were never
// removed, and the insertion phase seeds with it; one whose count is
// zero gives up its record.
func (m *Materialization) deletePropagate(s *stratum, a *applyState, sb *stratumStats) (dead, back []*headEntry, err error) {
	lost, err := runTasks(m.deleteSeedTasks(s, a))
	if err != nil {
		return nil, nil, err
	}
	spared := make(map[string]bool)
	for {
		wave, err := m.applyDecrements(lost, a, spared)
		if err != nil {
			return nil, nil, err
		}
		if len(wave) == 0 {
			break
		}
		// Enumerate the wave's consequences before committing the wave
		// to the deleted set: the wave's own tasks must still see these
		// facts as "current wave", not "already attributed".
		if lost, err = runTasks(m.deleteWaveTasks(s, a, wave)); err != nil {
			return nil, nil, err
		}
		for _, e := range wave {
			a.delSet[e.k] = true
		}
		dead = append(dead, wave...)
	}
	ranked := len(spared) > 0
	for _, e := range dead {
		ranked = ranked || m.byHead[e.f.RelID()].recursive
		if m.derived[e.k].n > 0 {
			back = append(back, e)
		} else {
			delete(m.derived, e.k)
		}
	}
	if ranked {
		sb.overdeleted = len(dead)
	}
	sb.kept = len(spared)
	return dead, back, nil
}

// applyDecrements commits one wave of lost derivations in sorted order
// and returns the facts that die of it. A fact whose count reaches
// zero dies. Where support cannot be cyclic a positive count is a
// surviving derivation; a fact of a recursive component must also pass
// the witness check, every time a wave reaches it — against the
// pre-update view, the one the cascade's joins enumerate, so that a
// derivation that vouches for a fact is one whose loss would reach the
// fact again — and spared holds those it passed last time. A support
// underflow is impossible by the attribution invariant (total
// decrements = lost derivations ≤ support), so hitting one means the
// engine is corrupt and the error says so loudly.
func (m *Materialization) applyDecrements(lost *headAcc, a *applyState, spared map[string]bool) ([]*headEntry, error) {
	var wave []*headEntry
	for _, e := range lost.entries() {
		d, ok := m.derived[e.k]
		if !ok || int64(d.n) < e.n {
			return nil, fmt.Errorf("incr: support underflow on %v: have %d, lost %d derivations", e.f, d.n, e.n)
		}
		a.st.SupportDecrements += e.n
		d.n -= uint32(e.n)
		m.derived[e.k] = d
		switch {
		case a.delSet[e.k]: // died in an earlier wave; only its count moves
		case d.n == 0:
			wave = append(wave, e)
		case m.byHead[e.f.RelID()].recursive:
			holds, err := m.witnessed(a.oldX, e.f, d.rank, a.delSet, a.insSet)
			if err != nil {
				return nil, err
			}
			if holds {
				spared[e.k] = true
			} else {
				wave = append(wave, e)
			}
		}
	}
	for _, e := range wave {
		delete(spared, e.k)
		m.x.Remove(e.f)
	}
	return wave, nil
}
