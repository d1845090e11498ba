package incr

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fact"
)

// This file is the MVCC surface of the materialization: Epoch turns
// the current committed state into an immutable snapshot that any
// number of readers may query concurrently while the (single) writer
// keeps applying deltas. This is the evaluation-side shadow of the
// paper's CALM story — for coordination-free programs reads never need
// to wait for writes, they only need a consistent grown state to run
// against — and an epoch's relation, sorted and encoded for the wire,
// is its predecessor's, patched by the net delta Apply already computed.

// Epoch is one immutable committed state of a Materialization: the
// fact set, the apply sequence number that produced it, and the base
// (edb) size. Epochs are safe for concurrent use by any number of
// goroutines, concurrently with later Apply calls on the parent
// materialization. Two epochs with the same Seq taken from the same
// materialization answer every query byte-identically — the serving
// layer's determinism guarantee is anchored here.
type Epoch struct {
	seq, base, n int
	// runs has one run per non-empty relation and is never written once
	// published; epochs share the runs no commit between them touched.
	runs map[string]*run
}

// run is the answer of one relation at one committed state, laid out
// in chunks (wire.go) by the first read and kept for every later one.
type run struct {
	n    int // number of facts, known without building
	once sync.Once
	got  atomic.Pointer[sorted]
	// Until it is read, a run is base's answer without del and with add,
	// both sorted; the build clears base. base had been read, or had no
	// base itself, when the run was made, so unread runs never chain. A
	// run made without one (first publish, restore, a delta past foldShare)
	// holds the index snapshot, unsorted, in add: the one sort of a relation.
	base     atomic.Pointer[run]
	add, del []fact.Fact
}

// sorted is a run as a reader sees it: its chunks and, built from them
// by the first Rel, its facts as one list. Immutable once built.
type sorted struct {
	chunks []*chunk
	list   sync.Once
	facts  []fact.Fact
}

// foldShare bounds the delta an unread run carries, and so what a read
// merges and memory holds, to 1/foldShare of the relation: past it the
// writer builds the run itself or, its base never read, starts afresh.
const foldShare = 4

// get builds the run's chunks on the first call: its base's, patched by
// the delta, or its own index snapshot sorted and encoded.
func (r *run) get() *sorted {
	r.once.Do(func() {
		s := new(sorted)
		if b := r.base.Load(); b != nil {
			s.chunks = patch(b.get().chunks, r.add, r.del)
		} else {
			fact.SortFacts(r.add) // RelList's copy, this run's own: nobody reads add once base is nil
			s.chunks, r.add = chunked(r.add), nil
		}
		r.got.Store(s)
		r.base.Store(nil)
	})
	return r.got.Load()
}

// patchFacts returns the sorted list facts without the members of del
// and with those of add (both sorted, add disjoint from what is kept):
// the algebra of the deltas unread runs carry. No change, no copy.
func patchFacts(facts, add, del []fact.Fact) []fact.Fact {
	if len(add) == 0 && len(del) == 0 {
		return facts
	}
	out := make([]fact.Fact, 0, len(facts)+len(add))
	at := 0 // facts[:at] is dealt with
	for len(add) > 0 || len(del) > 0 {
		if len(del) == 0 || (len(add) > 0 && add[0].Compare(del[0]) < 0) {
			i, _ := slices.BinarySearchFunc(facts[at:], add[0], fact.Fact.Compare)
			out = append(append(out, facts[at:at+i]...), add[0])
			at, add = at+i, add[1:]
		} else {
			i, found := slices.BinarySearchFunc(facts[at:], del[0], fact.Fact.Compare)
			if out, at = append(out, facts[at:at+i]...), at+i; found {
				at++
			}
			del = del[1:]
		}
	}
	return append(out, facts[at:]...)
}

// flow is what one relation gained and lost since the last Epoch().
type flow struct{ add, del []fact.Fact }

// record appends one apply's additions (ins) or removals, set's facts
// of rel at arity, to the relation's flow, as views over set's rows,
// which nothing writes once the apply returns. One the last epoch did
// not hold, or whose flow passes foldShare, is not followed (nil): its
// next run starts from the index.
func (m *Materialization) record(set *fact.Instance, rel fact.ID, arity int, ins bool) {
	name := string(fact.Symbol(rel))
	net, seen := m.flow[name]
	prev := m.runs[name]
	if !seen && prev != nil {
		net = new(flow)
	}
	if net != nil {
		fs, rows := &net.del, set.Rows(rel, arity)
		if ins {
			fs = &net.add
		}
		for r := range set.Count(rel, arity) {
			*fs = append(*fs, fact.Alias(rel, rows[r*arity:(r+1)*arity]))
		}
		if len(net.add)+len(net.del) > prev.n/foldShare {
			net = nil
		}
	}
	m.flow[name] = net
}

// extend returns rel's run after the flow since prev, its last one, at
// the cost of the flow, not the relation, until foldShare says fold.
func (m *Materialization) extend(prev *run, rel string, net *flow) *run {
	if net == nil {
		raw := m.x.RelList(rel)
		return &run{n: len(raw), add: raw}
	}
	fact.SortFacts(net.add)
	fact.SortFacts(net.del)
	add := patchFacts(net.add, nil, net.del) // in and out again, or out and back: no change
	del := patchFacts(net.del, nil, net.add)
	r, base := &run{n: prev.n + len(add) - len(del), add: add, del: del}, prev
	if b := prev.base.Load(); b != nil {
		// Nobody read prev: extend what it extends, by both deltas.
		back := patchFacts(add, nil, prev.del) // added, unless that restores a base fact
		gone := patchFacts(del, nil, prev.add) // removed, unless that undoes an addition
		r.add = patchFacts(prev.add, back, del)
		r.del = patchFacts(prev.del, gone, add)
		base = b
	}
	r.base.Store(base)
	if len(r.add)+len(r.del) > r.n/foldShare {
		if base.got.Load() == nil {
			return m.extend(nil, rel, nil)
		}
		r.get()
	}
	return r
}

// Epoch publishes the current committed state as an immutable
// snapshot. It must be called from the same goroutine that calls
// Apply (the single writer), between — never during — applies.
func (m *Materialization) Epoch() *Epoch {
	switch {
	case m.runs == nil:
		m.runs = make(map[string]*run)
		for _, rel := range m.x.Rels() {
			m.runs[rel] = m.extend(nil, rel, nil)
		}
	case len(m.flow) > 0:
		m.runs = maps.Clone(m.runs) // the last epoch keeps its own
		for rel, net := range m.flow {
			if r := m.extend(m.runs[rel], rel, net); r.n > 0 {
				m.runs[rel] = r
			} else {
				delete(m.runs, rel)
			}
		}
	}
	clear(m.flow)
	base := m.x.Len()
	for id, h := range m.byHead {
		base -= m.x.Count(id, h.arity)
	}
	return &Epoch{seq: m.seq, base: base, n: m.x.Len(), runs: m.runs}
}

// Seq returns the apply sequence number the epoch was published at, Len
// its number of materialized facts, BaseLen of base (edb) facts.
func (e *Epoch) Seq() int     { return e.seq }
func (e *Epoch) Len() int     { return e.n }
func (e *Epoch) BaseLen() int { return e.base }

// Rel returns the epoch's facts of one relation in canonical sorted
// order. The list is built from the run's chunks on the first call and
// shared by every caller, on this epoch and any that has the relation
// unchanged: read it, do not modify it. No serving path asks for it.
func (e *Epoch) Rel(rel string) []fact.Fact {
	r := e.runs[rel]
	if r == nil {
		return nil
	}
	s := r.get()
	s.list.Do(func() {
		s.facts = make([]fact.Fact, 0, r.n)
		for _, c := range s.chunks {
			for i := range c.len() {
				s.facts = append(s.facts, c.fact(i))
			}
		}
	})
	return s.facts
}

// Wire returns the epoch's facts of rel — of every relation, in
// relation-name order, when rel is "" — in wire form: the runs' chunks,
// which this and every later read only copy.
func (e *Epoch) Wire(rel string) Wire {
	if rel != "" {
		if r := e.runs[rel]; r != nil {
			return wireOf(r.get().chunks)
		}
		return Wire{}
	}
	rels := make([]string, 0, len(e.runs))
	for rel := range e.runs {
		rels = append(rels, rel)
	}
	slices.Sort(rels)
	var cs []*chunk
	for _, rel := range rels {
		cs = append(cs, e.runs[rel].get().chunks...)
	}
	return wireOf(cs)
}

// Err returns the corruption error if a maintenance phase failed and
// poisoned the materialization, else nil. A server publishing epochs
// checks it after each batch: when the materialization is corrupt the
// last good epoch stays current, so reads keep answering from the
// final consistent state while writes fail fast.
func (m *Materialization) Err() error { return m.corrupt }
