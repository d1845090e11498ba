package datalog

import (
	"math"
	"slices"

	"repro/internal/fact"
)

// This file implements the persistent, incrementally-maintained index
// the fixpoint engines evaluate against. An IndexedInstance is built
// once and kept in sync fact-by-fact, so round-based callers — the
// fixpoint loops, the wILOG¬ evaluator, the alternating fixpoint —
// share it across rounds and across the strata of a stratified
// evaluation instead of re-indexing.
//
// All index keys are interned IDs (see internal/fact intern.go):
// hashing a probe is integer work, with no string building. Rows and
// the lists of their ids are appended in the deterministic order the
// engines add facts (sorted instance enumeration, then sorted per-round
// deltas), so candidate enumeration — and with it every derivation
// count in the event stream — is identical across runs and worker
// counts.

// row is one stored fact and the versions that see it: born <= v < died.
type row struct {
	f          fact.Fact
	born, died uint64
}

// alive is the died stamp of a row nobody removed.
const alive = math.MaxUint64

func (r *row) visible(at uint64) bool { return r.born <= at && at < r.died }

// relTable holds one relation: every fact once, in the order added, and
// per (position, value) the ascending ids of the rows holding that value
// there — the access path for index-assisted joins. Lists are behind
// pointers so the append on every add, the hottest map operation of a
// fixpoint, hashes its key once.
type relTable struct {
	rows   []row
	byArg  map[uint64]*[]int32
	dead   int     // rows with a died stamp
	killed []int32 // those of them still in their lists: died since the last freeze
}

func argKey(pos int, val fact.ID) uint64 { return uint64(pos)<<32 | uint64(val) }

// compactFloor is the number of dead rows below which a table is never
// compacted; above it, one whose dead rows outnumber its live ones is.
const compactFloor = 64

// relIndex is the join index of an instance, one relTable per relation.
// Nothing in it is ever copied for a reader: a removal stamps the row
// with the open version ver, an add appends a row born in it (a fact
// removed and added again is a new row, so list order is the order of
// adds and the old row stays what older versions see), and a reader
// skips the rows its version does not see. freeze closes the version.
type relIndex struct {
	tabs map[fact.ID]*relTable
	ver  uint64
}

func indexInstance(i *fact.Instance) *relIndex {
	idx := &relIndex{tabs: make(map[fact.ID]*relTable)}
	for _, f := range i.Facts() {
		idx.add(f)
	}
	return idx
}

func (idx *relIndex) add(f fact.Fact) {
	t := idx.tabs[f.RelID()]
	if t == nil {
		t = &relTable{byArg: make(map[uint64]*[]int32)}
		idx.tabs[f.RelID()] = t
	}
	id := int32(len(t.rows))
	t.rows = append(t.rows, row{f, idx.ver, alive})
	for p, v := range f.ArgIDs() {
		if lp, ok := t.byArg[argKey(p, v)]; ok {
			*lp = append(*lp, id)
		} else {
			t.byArg[argKey(p, v)] = &[]int32{id}
		}
	}
}

// find returns the id of the row holding args that version at sees, or
// -1, scanning the shortest list the row must be in: integer compares.
func (t *relTable) find(args []fact.ID, at uint64) int32 {
	var best []int32
	for p, v := range args {
		lp := t.byArg[argKey(p, v)]
		if lp == nil {
			return -1
		}
		if p == 0 || len(*lp) < len(best) {
			best = *lp
		}
	}
	for _, id := range best {
		if r := &t.rows[id]; r.visible(at) && slices.Equal(r.f.ArgIDs(), args) {
			return id
		}
	}
	return -1
}

// hasIDs reports whether version at holds rel(args...) — membership
// for frozen views, which have no fact store to ask.
func (idx *relIndex) hasIDs(rel fact.ID, args []fact.ID, at uint64) bool {
	t := idx.tabs[rel]
	return t != nil && t.find(args, at) >= 0
}

// kill stamps the live row of f, which must be present, as dead from
// the open version on. It touches no list and allocates nothing; the
// row leaves its lists at the next freeze.
func (idx *relIndex) kill(f fact.Fact) {
	t := idx.tabs[f.RelID()]
	id := t.find(f.ArgIDs(), idx.ver)
	t.rows[id].died = idx.ver
	t.dead++
	t.killed = append(t.killed, id)
}

// freeze closes the open version and opens the next. No reader is left
// that sees a dead row (the one view of the version before is invalid
// from here on), so the rows killed since the last freeze leave their
// lists, O(degree) each, and a table mostly dead is compacted.
func (idx *relIndex) freeze() {
	for _, t := range idx.tabs {
		for _, id := range t.killed {
			for p, v := range t.rows[id].f.ArgIDs() {
				lp := t.byArg[argKey(p, v)]
				i, _ := slices.BinarySearch(*lp, id)
				if *lp = slices.Delete(*lp, i, i+1); len(*lp) == 0 {
					delete(t.byArg, argKey(p, v))
				}
			}
		}
		t.killed = t.killed[:0]
		if t.dead > compactFloor && t.dead > len(t.rows)-t.dead {
			t.compact()
		}
	}
	idx.ver++
}

// compact drops the dead rows, all out of their lists already, and
// renumbers the rest in order, so every list stays ascending.
func (t *relTable) compact() {
	remap := make([]int32, len(t.rows))
	live := make([]row, 0, len(t.rows)-t.dead)
	for i := range t.rows {
		remap[i] = int32(len(live))
		if t.rows[i].died == alive {
			live = append(live, t.rows[i])
		}
	}
	for _, lp := range t.byArg {
		for i, id := range *lp {
			(*lp)[i] = remap[id]
		}
	}
	t.rows, t.dead = live, 0
}

// live copies the facts of a relation that version at sees, in row order.
func (idx *relIndex) live(rel fact.ID, at uint64) []fact.Fact {
	t := idx.tabs[rel]
	if t == nil {
		return nil
	}
	out := make([]fact.Fact, 0, len(t.rows)-t.dead)
	for i := range t.rows {
		if t.rows[i].visible(at) {
			out = append(out, t.rows[i].f)
		}
	}
	return out
}

// cands is what one atom ranges over: a pinned delta list, or the rows
// of a table — those ids names, all of them when ids is nil. n counts
// entries, rows the reader's version does not see included.
type cands struct {
	facts []fact.Fact
	rows  []row
	ids   []int32
	n     int
}

// candidatesC returns the rows that can possibly match the compiled
// atom under the current environment: the narrowest per-argument list
// over all bound positions, or the whole table when no argument is
// bound yet. An empty probe short-circuits — no narrower candidate set
// exists.
func (idx *relIndex) candidatesC(a cAtom, env []fact.ID) cands {
	t := idx.tabs[a.rel]
	if t == nil {
		return cands{}
	}
	best := cands{rows: t.rows, n: len(t.rows)}
	for p, term := range a.terms {
		v := term.cnst
		if term.slot >= 0 {
			v = env[term.slot]
			if v == fact.NoID {
				continue
			}
		}
		lp := t.byArg[argKey(p, v)]
		if lp == nil {
			return cands{}
		}
		if best.ids == nil || len(*lp) < best.n {
			best.ids, best.n = *lp, len(*lp)
		}
	}
	return best
}

// IndexedInstance couples an instance with its join index, maintained
// incrementally: adding a fact updates both in O(arity), removing one
// in O(arity + degree). Build one with IndexInstance and reuse it
// across fixpoint rounds and strata instead of re-indexing per call.
//
// The instance must only change through Add and Remove while indexed;
// mutating the underlying instance directly desynchronizes the index.
// Reads of an IndexedInstance are safe from multiple goroutines as long
// as no Add, Remove or Freeze is concurrent (the engines mutate only at
// round or phase barriers).
type IndexedInstance struct {
	data *fact.Instance
	idx  *relIndex
	// A frozen view (Freeze) has no data: it reads idx at version at and
	// counted n facts when it was taken.
	at uint64
	n  int
}

// IndexInstance builds the index over the instance. The instance is
// NOT copied: the IndexedInstance takes ownership, and the caller must
// only grow it through Add.
func IndexInstance(i *fact.Instance) *IndexedInstance {
	return &IndexedInstance{data: i, idx: indexInstance(i)}
}

// version is the index version reads go to: the open one, or the one a
// view froze — which must still be the last one frozen.
func (x *IndexedInstance) version() uint64 {
	if x.data != nil {
		return x.idx.ver
	}
	if x.at+1 != x.idx.ver {
		panic("datalog: read of a frozen view after a later Freeze")
	}
	return x.at
}

// Add inserts the fact into the instance and the index, reporting
// whether it was newly added.
func (x *IndexedInstance) Add(f fact.Fact) bool {
	if !x.Instance().Add(f) {
		return false
	}
	x.idx.add(f)
	return true
}

// addNew inserts a fact known to be absent — a delta fact already
// judged against the frozen instance — skipping the membership probe
// that Add pays.
func (x *IndexedInstance) addNew(f fact.Fact) {
	x.data.AddNewIDs(f.RelID(), f.ArgIDs())
	x.idx.add(f)
}

// Remove deletes the fact from the instance and the index, reporting
// whether it was present. Like Add, Remove must not run concurrently
// with reads; the incremental engine removes only at phase barriers.
func (x *IndexedInstance) Remove(f fact.Fact) bool {
	if !x.Instance().Remove(f) {
		return false
	}
	x.idx.kill(f)
	return true
}

// RemoveAll removes a batch of facts, skipping those not present, and
// returns how many were removed.
func (x *IndexedInstance) RemoveAll(fs []fact.Fact) int {
	n := 0
	for _, f := range fs {
		if x.Remove(f) {
			n++
		}
	}
	return n
}

// Freeze returns a read-only view of the instance as it is now, for
// join enumeration: later mutations of the receiver are invisible to
// the view, and mutating the view panics. Nothing is copied — the view
// reads the receiver's index at the version this call closes, and
// answers membership (negation guards, Has) from it; Instance is
// unavailable. There is one view at a time: the next Freeze reclaims
// what only this one could still see, and reading it afterwards panics.
func (x *IndexedInstance) Freeze() *IndexedInstance {
	n := x.Instance().Len()
	x.idx.freeze()
	return &IndexedInstance{idx: x.idx, at: x.idx.ver - 1, n: n}
}

// RelList returns the facts of one relation, in index order, in a slice
// of the caller's own: what a serving epoch with no predecessor sorts
// (internal/incr Epoch). Take it between mutations.
func (x *IndexedInstance) RelList(rel string) []fact.Fact {
	id, _ := fact.LookupValue(fact.Value(rel))
	return x.idx.live(id, x.version())
}

// Rows returns the number of rows the index holds, dead ones awaiting
// compaction included: at most twice Len plus a constant after a Freeze.
func (x *IndexedInstance) Rows() int {
	n := 0
	for _, t := range x.idx.tabs {
		n += len(t.rows)
	}
	return n
}

// Has reports whether the fact is present.
func (x *IndexedInstance) Has(f fact.Fact) bool {
	return x.hasIDs(f.RelID(), f.ArgIDs())
}

// hasIDs is Has for an unmaterialized (rel, args) tuple — the round
// executors' dedup test, allocation-free.
func (x *IndexedInstance) hasIDs(rel fact.ID, args []fact.ID) bool {
	if x.data == nil {
		return x.idx.hasIDs(rel, args, x.version())
	}
	return x.data.HasIDs(rel, args)
}

// Len returns the number of facts.
func (x *IndexedInstance) Len() int {
	if x.data == nil {
		return x.n
	}
	return x.data.Len()
}

// Instance returns the underlying instance. Callers must not mutate it
// except through Add. Panics on a frozen view, which has none.
func (x *IndexedInstance) Instance() *fact.Instance {
	if x.data == nil {
		panic("datalog: a frozen view is read-only and has no Instance")
	}
	return x.data
}
