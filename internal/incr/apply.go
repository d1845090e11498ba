package incr

import (
	"fmt"
	"math"
	"slices"

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
// valuation can contain several delta facts. The rule, written once as
// the phase table of pins (tasks.go): a valuation is attributed to the
// FIRST body position holding a fact pinned by the phase. Each phase
// (the seeds and the cascade waves of deletion and of insertion) is
// one row of that table, and tasks builds its pinned joins.
//
// Where a valuation can be pinned both ways, one side wins. In
// deletion NEG pins win: pos-side deaths accumulate wave by wave, so a
// seed cannot yet know that a pos fact will die, but the inserted
// facts of lower strata are all committed before the stratum's
// deletion phase starts, so ins membership of neg grounds is
// already final (were pos pins to win, a valuation lost both ways
// would be counted at the neg seed AND again when its pos fact dies in
// a later wave). In insertion pos pins win. A deletion wave skips
// valuations through facts of earlier waves and seeds (del), which
// were attributed when those ran; an insertion wave needs no such skip,
// since a valuation through a committed-delta fact was counted at its
// seed or wave, which ran before this wave's facts existed.
//
// Determinism. All enumeration happens against views frozen for the
// phase (the index frozen before the apply for deletions, the current
// materialization for insertions); results fold into a per-phase
// accumulator and every mutation is applied in sorted fact order at a
// barrier, so materializations, support tables, and event streams are
// a function of the update history alone.

// applyState carries one Apply's delta bookkeeping across strata: the
// pre-update view and the committed flow, two fresh sets of interned ids
// that later strata pin their seed joins to. del also holds a stratum's
// dead so far (never over a relation it negates); returning ones leave.
type applyState struct {
	st       ApplyStats
	oldX     *datalog.IndexedInstance
	ins, del *fact.Instance
	acc      headAcc // each phase's, emptied by runTasks
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
	if sp.Ctx().Enabled() {
		sp.SetSeq(m.seq)
		sp.Attr("inserted", st.BaseInserted).Attr("retracted", st.BaseRetracted)
		sp.Attr("added", st.DerivedAdded).Attr("removed", st.DerivedRemoved)
		sp.Attr("overdeleted", st.Overdeleted).Attr("rederived", st.Rederived).Attr("kept", st.Kept)
		if err != nil {
			sp.Attr("error", err.Error())
		}
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

	a := &applyState{ins: fact.NewInstance(), del: fact.NewInstance()}
	// The deletion phases join "what held before" — freeze the index,
	// which copies nothing, when anything can be lost: a retraction, or
	// (with negation anywhere in the program) an insertion into a negated
	// relation.
	if len(ret) > 0 || (m.hasNeg && len(ins) > 0) {
		a.oldX = m.x.Freeze()
	}
	for _, f := range ret {
		a.del.Add(f)
	}
	m.x.RemoveAll(ret)
	for _, f := range ins {
		m.x.Add(f)
		a.ins.Add(f)
	}
	a.st.BaseInserted, a.st.BaseRetracted = len(ins), len(ret)
	m.seq++

	fail := func(err error) (ApplyStats, error) {
		m.corrupt = fmt.Errorf("incr: materialization corrupt after failed apply %d: %w", m.seq, err)
		return a.st, m.corrupt
	}
	// The seed rows of the phase table (tasks.go): a stratum whose seed
	// list is empty has nothing to lose, or to gain, in that phase.
	delSeed := &pins{view: a.oldX, pos: a.del, neg: a.ins, posSkipsNeg: a.ins}
	insSeed := &pins{view: m.x, pos: a.ins, neg: a.del, negSkipsPos: a.ins}
	for si := range m.strata {
		s := &m.strata[si]
		var sb stratumStats
		var dead, back []headEntry
		if seeds := delSeed.tasks(s); len(seeds) > 0 {
			if dead, back, err = m.deletePropagate(s, a, &sb, seeds); err != nil {
				return fail(err)
			}
		}
		if seeds := insSeed.tasks(s); len(seeds) > 0 || len(back) > 0 {
			if err := m.insertPropagate(s, a, &sb, seeds, back); err != nil {
				return fail(err)
			}
		}
		// A dead fact the insertion phase brought back was there before
		// the apply and is there after it: it leaves the deleted set, and
		// only the others stay in the flow later strata see.
		for _, e := range dead {
			if m.x.Has(e.f) {
				a.del.Remove(e.f)
				sb.rederived++
			} else {
				sb.removed++
			}
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
	// The flow goes to the epochs a column at a time.
	for _, set := range []*fact.Instance{a.del, a.ins} {
		rel, arity := fact.NoID, -1
		set.EachIDs(func(r fact.ID, args []fact.ID) bool {
			if r != rel || len(args) != arity {
				rel, arity = r, len(args)
				m.record(set, rel, arity, set == a.ins)
			}
			return true
		})
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
	var retracted *fact.Instance // only a delta with both sides needs it
	if len(d.Insert) > 0 && len(d.Retract) > 0 {
		retracted = fact.NewInstance(d.Retract...)
	}
	for _, f := range d.Retract {
		if err := checkBaseFact(idb, schema, f); err != nil {
			return err
		}
	}
	for _, f := range d.Insert {
		if err := checkBaseFact(idb, schema, f); err != nil {
			return err
		}
		if retracted != nil && retracted.Has(f) {
			return fmt.Errorf("incr: %v appears in both insert and retract of one delta", f)
		}
	}
	return nil
}

// netDelta validates and nets the delta down to actual base changes,
// returned in sorted fact order. A delta fact is never over an idb
// relation, so m.x holds it exactly when the base does.
func (m *Materialization) netDelta(d Delta) (ins, ret []fact.Fact, err error) {
	if err := d.Check(m.idb, m.schema); err != nil {
		return nil, nil, err
	}
	return m.changes(d.Insert, false), m.changes(d.Retract, true), nil
}

// changes returns the facts of fs whose presence in m.x is held, once
// each, in sorted order.
func (m *Materialization) changes(fs []fact.Fact, held bool) []fact.Fact {
	var out []fact.Fact
	for _, f := range fs {
		if m.x.Has(f) == held {
			out = append(out, f)
		}
	}
	fact.SortFacts(out)
	return slices.CompactFunc(out, fact.Fact.Equal)
}

// insertPropagate runs semi-naive delta insertion with support
// counting: seeds from the committed delta and from back, the facts the
// deletion phase removed with derivations to spare, then waves of newly
// derived facts until none appear. New facts are committed to the
// apply's insert flow so later strata see them.
func (m *Materialization) insertPropagate(s *stratum, a *applyState, sb *stratumStats, seeds []pinTask, back []headEntry) error {
	acc, err := a.acc.runTasks(seeds)
	if err != nil {
		return err
	}
	for {
		wave, err := m.applyIncrements(acc, back, a, sb)
		if len(wave) == 0 || err != nil {
			return err
		}
		back = nil
		if acc, err = a.acc.runTasks(wavePins(m.x, wave).tasks(s)); err != nil {
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
// it returns; one whose count it took to zero comes back on a record
// of count zero. A count that outgrows its 32 bits fails the apply.
func (m *Materialization) applyIncrements(acc, back []headEntry, a *applyState, sb *stratumStats) ([]headEntry, error) {
	rank := m.tick()
	wave := slices.Grow(back, len(acc))
	for _, e := range back {
		m.x.Add(e.f)
		m.rec(e.f).Rank = rank
	}
	for _, e := range acc {
		a.st.SupportIncrements += e.n
		added := m.x.Add(e.f)
		d := m.rec(e.f)
		if added {
			*d = datalog.Support{Rank: rank}
			wave = append(wave, e)
			if !a.del.Has(e.f) {
				sb.added++
				a.ins.Add(e.f)
			}
		}
		if e.n > math.MaxUint32-int64(d.N) {
			return nil, fmt.Errorf("incr: support overflow on %v: have %d, gained %d derivations", e.f, d.N, e.n)
		}
		d.N += uint32(e.n)
	}
	return wave, nil
}

// deletePropagate maintains a stratum under lost derivations: enumerate
// them against the pre-update view, decrement, and cascade the facts
// that die, wave by wave, each leaving the materialization with its
// wave. It returns the dead and, among them, those to come back. Counts
// stay exact for the dead too, so when the cascade stops one whose count
// is positive still has a derivation over facts that were never
// removed, and the insertion phase seeds with it.
func (m *Materialization) deletePropagate(s *stratum, a *applyState, sb *stratumStats, seeds []pinTask) (dead, back []headEntry, err error) {
	lost, err := a.acc.runTasks(seeds)
	if err != nil {
		return nil, nil, err
	}
	spared := fact.NewInstance()
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
		p := wavePins(a.oldX, wave)
		p.posSkipsPos, p.posSkipsNeg = a.del, a.ins
		if lost, err = a.acc.runTasks(p.tasks(s)); err != nil {
			return nil, nil, err
		}
		for _, e := range wave {
			a.del.Add(e.f)
		}
		dead = append(dead, wave...)
	}
	ranked := spared.Len() > 0
	for _, e := range dead {
		ranked = ranked || m.byHead[e.f.RelID()].recursive
		if m.rec(e.f).N > 0 {
			back = append(back, e)
		}
	}
	if ranked {
		sb.overdeleted = len(dead)
	}
	sb.kept = spared.Len()
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
func (m *Materialization) applyDecrements(lost []headEntry, a *applyState, spared *fact.Instance) ([]headEntry, error) {
	var wave []headEntry
	for _, e := range lost {
		d := m.rec(e.f)
		if d == nil || int64(d.N) < e.n {
			return nil, fmt.Errorf("incr: support underflow on %v: record %v, lost %d derivations", e.f, d, e.n)
		}
		a.st.SupportDecrements += e.n
		d.N -= uint32(e.n)
		switch {
		case a.del.Has(e.f): // died in an earlier wave; only its count moves
		case d.N == 0:
			wave = append(wave, e)
		case m.byHead[e.f.RelID()].recursive:
			holds, err := m.witnessed(a.oldX, e.f, d.Rank, a.del, a.ins)
			if err != nil {
				return nil, err
			}
			if holds {
				spared.Add(e.f)
			} else {
				wave = append(wave, e)
			}
		}
	}
	for _, e := range wave {
		spared.Remove(e.f)
		m.x.Remove(e.f)
	}
	return wave, nil
}
