package datalog

import (
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
// hashing a probe is integer work, with no string building. Posting
// lists are appended in the deterministic order the engines add facts
// (sorted instance enumeration, then sorted per-round deltas), so
// candidate enumeration — and with it every derivation count in the
// event stream — is identical across runs and worker counts.

// idxKey addresses the facts of a relation holding a given value at a
// given argument position — the access path for index-assisted joins.
type idxKey struct {
	rel fact.ID
	pos int32
	val fact.ID
}

// relIndex indexes an instance by relation and additionally by
// (relation, position, value), so that rule evaluation can narrow the
// candidate facts for an atom whose argument is already bound.
//
// Posting lists are held behind pointers so the append on every add —
// the single hottest map operation in a fixpoint — hashes the key once
// (lookup) instead of twice (lookup + store of the grown slice
// header).
type relIndex struct {
	byRel map[fact.ID]*[]fact.Fact
	byArg map[idxKey]*[]fact.Fact
}

func newRelIndex() *relIndex {
	return &relIndex{
		byRel: make(map[fact.ID]*[]fact.Fact),
		byArg: make(map[idxKey]*[]fact.Fact),
	}
}

// rel returns the posting list of a relation (nil when empty).
func (idx *relIndex) rel(r fact.ID) []fact.Fact {
	if lp, ok := idx.byRel[r]; ok {
		return *lp
	}
	return nil
}

func indexInstance(i *fact.Instance) *relIndex {
	idx := newRelIndex()
	for _, f := range i.Facts() {
		idx.add(f)
	}
	return idx
}

func (idx *relIndex) add(f fact.Fact) {
	rel := f.RelID()
	if lp, ok := idx.byRel[rel]; ok {
		*lp = append(*lp, f)
	} else {
		lp := new([]fact.Fact)
		*lp = append(*lp, f)
		idx.byRel[rel] = lp
	}
	for p, v := range f.ArgIDs() {
		k := idxKey{rel, int32(p), v}
		if lp, ok := idx.byArg[k]; ok {
			*lp = append(*lp, f)
		} else {
			lp := new([]fact.Fact)
			*lp = append(*lp, f)
			idx.byArg[k] = lp
		}
	}
}

// remove drops the fact from every index list it appears in. Removal
// is copy-on-write — the shrunk list is freshly allocated, never
// mutated in place — so posting lists may be shared with clones (see
// clone). Like every mutation, it must not run concurrently with an
// enumeration.
func (idx *relIndex) remove(f fact.Fact) {
	rel := f.RelID()
	if lp, ok := idx.byRel[rel]; ok {
		*lp = removeFact(*lp, f)
	}
	for p, v := range f.ArgIDs() {
		k := idxKey{rel, int32(p), v}
		lp, ok := idx.byArg[k]
		if !ok {
			continue
		}
		if fs := removeFact(*lp, f); len(fs) == 0 {
			delete(idx.byArg, k)
		} else {
			*lp = fs
		}
	}
}

func removeFact(fs []fact.Fact, f fact.Fact) []fact.Fact {
	for i := range fs {
		if fs[i].Equal(f) {
			out := make([]fact.Fact, 0, len(fs)-1)
			out = append(out, fs[:i]...)
			return append(out, fs[i+1:]...)
		}
	}
	return fs
}

// removeAll drops a batch of facts in one pass per touched index list,
// instead of one linear scan per fact: the incremental engine deletes
// whole cascade waves and over-deletion cones at a time, where
// per-fact scans over a large relation turn O(|wave|) maintenance into
// O(|wave|·|relation|). fs must be duplicate-free. Membership is a
// binary search over per-relation batches ordered by interned IDs, so a
// pass over a list of n facts costs n·log|batch| integer comparisons.
func (idx *relIndex) removeAll(fs []fact.Fact) {
	gone := make(map[fact.ID][]fact.Fact)
	byArg := make(map[idxKey]bool)
	for _, f := range fs {
		rel := f.RelID()
		gone[rel] = append(gone[rel], f)
		for p, v := range f.ArgIDs() {
			byArg[idxKey{rel, int32(p), v}] = true
		}
	}
	for rel, gs := range gone {
		slices.SortFunc(gs, byArgIDs)
		if lp, ok := idx.byRel[rel]; ok {
			*lp = filterFacts(*lp, gs)
		}
	}
	for k := range byArg {
		lp, ok := idx.byArg[k]
		if !ok {
			continue
		}
		if kept := filterFacts(*lp, gone[k.rel]); len(kept) == 0 {
			delete(idx.byArg, k)
		} else {
			*lp = kept
		}
	}
}

// byArgIDs orders one relation's facts by interned arguments: for search only.
func byArgIDs(f, g fact.Fact) int { return slices.Compare(f.ArgIDs(), g.ArgIDs()) }

// filterFacts returns the facts of one relation not in the gone batch
// (byArgIDs order), in list order: freshly allocated (copy-on-write),
// with room for what a rederive re-adds, unless nothing is dropped.
func filterFacts(fs []fact.Fact, gone []fact.Fact) []fact.Fact {
	var kept []fact.Fact // allocated at the first drop
	for i, f := range fs {
		_, drop := slices.BinarySearchFunc(gone, f, byArgIDs)
		switch {
		case drop && kept == nil:
			kept = append(make([]fact.Fact, 0, len(fs)), fs[:i]...)
		case !drop && kept != nil:
			kept = append(kept, f)
		}
	}
	if kept == nil {
		return fs
	}
	return kept
}

// tupleMatches reports whether the fact is rel(args...).
func tupleMatches(f fact.Fact, rel fact.ID, args []fact.ID) bool {
	if f.RelID() != rel {
		return false
	}
	fa := f.ArgIDs()
	if len(fa) != len(args) {
		return false
	}
	for i := range fa {
		if fa[i] != args[i] {
			return false
		}
	}
	return true
}

// hasIDs reports membership of rel(args...) by scanning the narrowest
// posting list the fact could appear in — the membership path for
// data-less views (CloneView), all integer compares.
func (idx *relIndex) hasIDs(rel fact.ID, args []fact.ID) bool {
	best := idx.rel(rel)
	for p, v := range args {
		lp, ok := idx.byArg[idxKey{rel, int32(p), v}]
		if !ok {
			return false
		}
		if cand := *lp; len(cand) < len(best) {
			best = cand
		}
	}
	for i := range best {
		if tupleMatches(best[i], rel, args) {
			return true
		}
	}
	return false
}

// has is hasIDs for a materialized fact.
func (idx *relIndex) has(f fact.Fact) bool {
	return idx.hasIDs(f.RelID(), f.ArgIDs())
}

// clone copies the index maps but shares the posting-list backing
// arrays, capping each shared slice's capacity at its length. That
// makes the sharing invisible to both sides: removals are
// copy-on-write (remove, removeAll), appends to a capped slice must
// reallocate, and appends on the original past the shared length land
// beyond what the clone can read.
func (idx *relIndex) clone() *relIndex {
	c := &relIndex{
		byRel: make(map[fact.ID]*[]fact.Fact, len(idx.byRel)),
		byArg: make(map[idxKey]*[]fact.Fact, len(idx.byArg)),
	}
	for k, lp := range idx.byRel {
		fs := (*lp)[:len(*lp):len(*lp)]
		c.byRel[k] = &fs
	}
	for k, lp := range idx.byArg {
		fs := (*lp)[:len(*lp):len(*lp)]
		c.byArg[k] = &fs
	}
	return c
}

// candidatesC returns the facts that can possibly match the compiled
// atom under the current environment: the narrowest per-argument index
// over all bound positions, or the full relation when no argument is
// bound yet. An empty probe short-circuits — no narrower candidate set
// exists.
func (idx *relIndex) candidatesC(a cAtom, env []fact.ID) []fact.Fact {
	best := idx.rel(a.rel)
	found := false
	for p, t := range a.terms {
		v := t.cnst
		if t.slot >= 0 {
			v = env[t.slot]
			if v == fact.NoID {
				continue
			}
		}
		lp := idx.byArg[idxKey{a.rel, int32(p), v}]
		if lp == nil || len(*lp) == 0 {
			return nil
		}
		if cand := *lp; !found || len(cand) < len(best) {
			best = cand
			found = true
		}
	}
	return best
}

// IndexedInstance couples an instance with its join index, maintained
// incrementally: adding or removing a fact updates both in O(arity).
// Build one with IndexInstance and reuse it across fixpoint rounds and
// strata instead of re-indexing per call.
//
// The instance must only change through Add and Remove while indexed;
// mutating the underlying instance directly desynchronizes the index.
// Reads of an IndexedInstance are safe from multiple goroutines as long
// as no Add or Remove is concurrent (the engines mutate only at round
// or phase barriers).
type IndexedInstance struct {
	data *fact.Instance
	idx  *relIndex
	n    int // fact count when data is nil (CloneView)
}

// IndexInstance builds the index over the instance. The instance is
// NOT copied: the IndexedInstance takes ownership, and the caller must
// only grow it through Add.
func IndexInstance(i *fact.Instance) *IndexedInstance {
	return &IndexedInstance{data: i, idx: indexInstance(i)}
}

// Add inserts the fact into the instance and the index, reporting
// whether it was newly added.
func (x *IndexedInstance) Add(f fact.Fact) bool {
	if x.data == nil {
		panic("datalog: Add on a read-only CloneView")
	}
	if !x.data.Add(f) {
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
	if x.data == nil {
		panic("datalog: Remove on a read-only CloneView")
	}
	if !x.data.Remove(f) {
		return false
	}
	x.idx.remove(f)
	return true
}

// CloneView returns a read-only snapshot of the instance for join
// enumeration: later mutations of the receiver are invisible to the
// view and vice versa (there is no vice versa — mutating a view
// panics). The view skips copying the fact store and shares
// posting-list storage copy-on-write with the receiver; membership
// checks (negation guards, Has) are answered from the index instead.
// Instance is unavailable on a view.
func (x *IndexedInstance) CloneView() *IndexedInstance {
	return &IndexedInstance{idx: x.idx.clone(), n: x.data.Len()}
}

// RelList returns a read-only, point-in-time snapshot of one relation's
// posting list, in index order: what a serving epoch with no predecessor
// sorts on its first read (internal/incr Epoch). It copies a slice
// header; the array is shared with the index copy-on-write, like clone.
// Take it between mutations; read it from any goroutine, at any time.
func (x *IndexedInstance) RelList(rel string) []fact.Fact {
	id, _ := fact.LookupValue(fact.Value(rel))
	return slices.Clip(x.idx.rel(id))
}

// RemoveAll deletes a batch of facts, skipping those not present, and
// returns how many were removed. The index update is one pass per
// touched posting list — use this over per-fact Remove when deleting
// cascade waves. Like Remove, it must not run concurrently with reads.
func (x *IndexedInstance) RemoveAll(fs []fact.Fact) int {
	if x.data == nil {
		panic("datalog: RemoveAll on a read-only CloneView")
	}
	present := fs[:0:0]
	for _, f := range fs {
		if x.data.Remove(f) {
			present = append(present, f)
		}
	}
	if len(present) > 0 {
		x.idx.removeAll(present)
	}
	return len(present)
}

// Has reports whether the fact is present.
func (x *IndexedInstance) Has(f fact.Fact) bool {
	if x.data == nil {
		return x.idx.has(f)
	}
	return x.data.Has(f)
}

// hasIDs is Has for an unmaterialized (rel, args) tuple — the round
// executors' dedup test, allocation-free.
func (x *IndexedInstance) hasIDs(rel fact.ID, args []fact.ID) bool {
	if x.data == nil {
		return x.idx.hasIDs(rel, args)
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
// except through Add. Panics on a CloneView, which has none.
func (x *IndexedInstance) Instance() *fact.Instance {
	if x.data == nil {
		panic("datalog: Instance on a read-only CloneView")
	}
	return x.data
}
