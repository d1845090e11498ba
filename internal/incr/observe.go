package incr

import "repro/internal/obs"

// Instrumentation plumbing. Counters and the apply-span histogram go
// to the Registry (nil-safe, scheduling-dependent values allowed);
// events go to the Tracer and carry only set-derived counts, so the
// event stream is a pure function of (program, update history) —
// byte-identical across runs. See internal/obs for the two-plane
// discipline.

// emitStratum reports one stratum's maintenance work (only emitted
// when the stratum did any). alg is "dred" when the deletion phase
// reached a fact of a recursive component — one a count alone does not
// prove, so ranks were compared — and "count" otherwise.
func (m *Materialization) emitStratum(si int, sb *stratumStats) {
	if m.opts.Tracer == nil {
		return
	}
	alg := "count"
	if sb.overdeleted+sb.kept > 0 {
		alg = "dred"
	}
	m.opts.Tracer.Emit(obs.EvIncrStratum,
		obs.F("seq", m.seq),
		obs.F("stratum", si+1),
		obs.F("alg", alg),
		obs.F("overdeleted", sb.overdeleted),
		obs.F("rederived", sb.rederived),
		obs.F("kept", sb.kept),
		obs.F("added", sb.added),
		obs.F("removed", sb.removed),
	)
}

// publishApply records one completed apply in both planes.
func (m *Materialization) publishApply(st *ApplyStats) {
	reg := m.opts.Reg
	reg.Counter(obs.IncrApplies).Inc()
	reg.Counter(obs.IncrBaseInserted).Add(int64(st.BaseInserted))
	reg.Counter(obs.IncrBaseRetracted).Add(int64(st.BaseRetracted))
	reg.Counter(obs.IncrDerivedAdded).Add(int64(st.DerivedAdded))
	reg.Counter(obs.IncrDerivedRemoved).Add(int64(st.DerivedRemoved))
	reg.Counter(obs.IncrOverdeleted).Add(int64(st.Overdeleted))
	reg.Counter(obs.IncrRederived).Add(int64(st.Rederived))
	reg.Counter(obs.IncrKept).Add(int64(st.Kept))
	reg.Counter(obs.IncrSupportIncrements).Add(st.SupportIncrements)
	reg.Counter(obs.IncrSupportDecrements).Add(st.SupportDecrements)
	if m.opts.Tracer == nil {
		return
	}
	m.opts.Tracer.Emit(obs.EvIncrApply,
		obs.F("seq", m.seq),
		obs.F("inserted", st.BaseInserted),
		obs.F("retracted", st.BaseRetracted),
		obs.F("added", st.DerivedAdded),
		obs.F("removed", st.DerivedRemoved),
		obs.F("facts", m.x.Len()),
	)
}
