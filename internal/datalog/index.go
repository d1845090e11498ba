package datalog

import (
	"math"
	"slices"
	"sync"

	"repro/internal/fact"
)

// This file implements the store the fixpoint engines evaluate against:
// an IndexedInstance holds every fact once, as a row of a relTable, and
// is extended fact by fact, so round-based callers — the fixpoint
// loops, the wILOG¬ evaluator, the alternating fixpoint — share it
// across rounds and across the strata of a stratified evaluation. A
// fact.Instance goes in (IndexInstance) and comes out (Instance, or
// handOver where the evaluation owns the index) at the two ends of an
// evaluation; in between there is no other copy.
//
// Everything stored and every key is an interned ID (see internal/fact
// intern.go): a probe is integer work, with no string building. Rows and
// the lists of their ids are appended in the deterministic order the
// engines add facts (sorted instance enumeration, then each round's
// heads in task order at its barrier), so candidate enumeration is
// identical across runs. A fixpoint only appends, so the rows one round
// added are a range of each table — the next round's delta.
//
// Every probe — membership by tuple, a posting list by (position,
// value) — is one fact.TupleIndex lookup: an open-addressed slot table,
// no Go map on the hot path. A table resolved once per enumeration
// (match) or per task (deriveTask) is not looked up again per candidate
// or per head.
//
// A row pays only for its readers: its arguments and byKey entry
// always, a version stamp once a Freeze or a removal can make versions
// differ, a posting-list entry at a position once a join probed it, a
// support record once incremental maintenance asked for one.

// stamp is the versions that see a row: born <= v < died.
type stamp struct{ born, died uint64 }

// alive is the died stamp of a row nobody removed, latest the version a
// live instance reads at (it sees exactly the rows still alive), and
// purged the born stamp of a row freeze took out of lists and key hash.
const (
	alive  = math.MaxUint64
	latest = alive - 1
	purged = alive
)

func (s stamp) visible(at uint64) bool { return s.born <= at && at < s.died }

// relTable is the one store of a relation at one arity: row i holds the
// interned arguments args[i*arity:(i+1)*arity], in the order added, and
// is seen by the versions stamps[i] says (all, while stamps is nil).
// sup[i] is its support record (zero for every row, while sup is nil).
// pos[p] holds the posting lists of position p from its first probe on.
// byKey, built over args, maps a tuple to its row some version may see.
type relTable struct {
	rel    fact.ID
	arity  int
	rows   int // rows held, dead ones awaiting compaction included
	args   []fact.ID
	stamps []stamp
	sup    []Support
	pos    []postings
	byKey  fact.TupleIndex
	dead   int     // rows with a died stamp
	killed []int32 // rows stamped dead since the last freeze, still in lists and key hash
}

// postings is one position's lists: byVal maps a value to a slot of
// lists, which holds the ascending ids of the rows with that value
// there. A list freeze empties gives its slot back: its key leaves
// byVal and the slot goes on free, for the next new key. Once built,
// add and freeze keep the lists as they keep byKey.
type postings struct {
	once  sync.Once
	built bool
	byVal fact.TupleIndex
	lists [][]int32
	free  []int32 // slots of lists no key maps to
}

// Support is the record incremental maintenance (internal/incr) keeps
// for a row: its derivation count and its rank. The engine only stores
// it.
type Support struct{ N, Rank uint32 }

type tabKey struct {
	rel   fact.ID
	arity int32
}

func (t *relTable) row(id int) []fact.ID { return t.args[id*t.arity : (id+1)*t.arity] }

// compactFloor is the number of dead rows below which a table is never
// compacted; above it, one whose dead rows outnumber its live ones is.
const compactFloor = 64

// relIndex is every table of an instance. Nothing in it is ever copied
// for a reader: a removal stamps the row with the open version ver, an
// add appends a row born in it — or, when the open version itself
// removed the tuple, takes the stamp back, so the row is what the
// frozen view and the live instance both see — and a reader skips the
// rows its version does not see. freeze closes the version.
type relIndex struct {
	tabs map[tabKey]*relTable
	ver  uint64
}

func (idx *relIndex) table(rel fact.ID, arity int) *relTable {
	return idx.tabs[tabKey{rel, int32(arity)}]
}

// add appends a row, born in version ver, for a tuple byKey has just
// mapped to it: its id on the lists there are, a zero support record if
// the table has records, and a stamp if the table has stamps or the
// row, born after a freeze, is one a view must not see.
func (t *relTable) add(args []fact.ID, ver uint64) {
	id := int32(t.rows)
	t.rows++
	t.args = append(t.args, args...)
	if t.sup != nil {
		t.sup = append(t.sup, Support{})
	}
	if t.stamps != nil || ver > 0 {
		t.stamps = append(t.stamps, stamp{ver, alive})
	}
	for p := range t.pos {
		if t.pos[p].built {
			t.pos[p].put(args[p], id)
		}
	}
}

// put lists row id under v: one byVal probe finds the list or its slot.
func (ps *postings) put(v fact.ID, id int32) {
	next := int32(len(ps.lists))
	if n := len(ps.free); n > 0 {
		next = ps.free[n-1]
	}
	s, added := ps.byVal.PutNew([]fact.ID{v}, nil, next)
	switch {
	case !added: // the list is there
	case int(s) == len(ps.lists):
		ps.lists = append(ps.lists, nil)
	default:
		ps.free = ps.free[:len(ps.free)-1]
	}
	ps.lists[s] = append(ps.lists[s], id)
}

// list returns the ids of the rows holding val at position pos. The
// first probe of pos builds its lists; concurrent ones wait for it.
func (t *relTable) list(pos int, val fact.ID) ([]int32, bool) {
	ps := &t.pos[pos]
	ps.once.Do(func() { t.build(pos) })
	if s, ok := ps.byVal.Get([]fact.ID{val}, nil); ok {
		return ps.lists[s], true
	}
	return nil, false
}

// build lists every row not purged under its value at pos, ascending:
// the lists add would hold had it kept pos from the first row on.
func (t *relTable) build(pos int) {
	ps := &t.pos[pos]
	ps.byVal, ps.built = fact.NewTupleIndex(), true
	for id := range t.rows {
		if t.stamps == nil || t.stamps[id].born != purged {
			ps.put(t.args[id*t.arity+pos], int32(id))
		}
	}
}

// stampRows gives the rows of a table with no stamps theirs, {0, alive}:
// all were added before the first freeze.
func (t *relTable) stampRows() {
	for len(t.stamps) < t.rows {
		t.stamps = append(t.stamps, stamp{0, alive})
	}
}

// has reports whether version at sees a row holding args: one byKey
// probe.
func (t *relTable) has(args []fact.ID, at uint64) bool {
	id, ok := t.byKey.Get(args, t.args)
	return ok && t.sees(id, at)
}

// sees reports whether version at sees row id. No stamp is read in a
// table with none — every table of a batch evaluation — nor by the
// live instance in a table with no dead row.
func (t *relTable) sees(id int32, at uint64) bool {
	return t.stamps == nil || at == latest && t.dead == 0 || t.stamps[id].visible(at)
}

// find returns the table and id of the row holding rel(args), if
// version at sees it: one hash probe, at every version.
func (idx *relIndex) find(rel fact.ID, args []fact.ID, at uint64) (*relTable, int32, bool) {
	t := idx.table(rel, len(args))
	if t == nil {
		return nil, 0, false
	}
	id, ok := t.byKey.Get(args, t.args)
	return t, id, ok && t.sees(id, at)
}

// freeze closes the open version, stamping every table, and opens the
// next. No reader is left that sees a dead row (the one view of the
// version before is invalid from here on), so the rows killed since
// the last freeze and not added back are purged from the key hash and,
// O(degree) each, the lists there are — a list left empty gives its
// slot back — and a table mostly dead is compacted.
func (idx *relIndex) freeze() {
	for _, t := range idx.tabs {
		t.stampRows()
		slices.Sort(t.killed) // killed, added back and killed again: listed twice
		for _, id := range slices.Compact(t.killed) {
			if t.stamps[id].died == alive {
				continue
			}
			args := t.row(int(id))
			for p := range t.pos {
				if ps := &t.pos[p]; ps.built {
					k := [1]fact.ID{args[p]}
					s, _ := ps.byVal.Get(k[:], nil)
					i, _ := slices.BinarySearch(ps.lists[s], id)
					if ps.lists[s] = slices.Delete(ps.lists[s], i, i+1); len(ps.lists[s]) == 0 {
						ps.byVal.Delete(k[:], nil)
						ps.free = append(ps.free, s)
					}
				}
			}
			t.byKey.Delete(args, t.args)
			t.stamps[id].born = purged
		}
		t.killed = t.killed[:0]
		if t.dead > compactFloor && t.dead > t.rows-t.dead {
			t.compact()
		}
	}
	idx.ver++
}

// compact drops the dead rows, all out of their lists and the key hash
// already, and renumbers the rest in order, so every list stays
// ascending; a live row's support record moves with it.
func (t *relTable) compact() {
	remap := make([]int32, t.rows)
	n := t.rows - t.dead
	args, stamps := make([]fact.ID, 0, n*t.arity), make([]stamp, 0, n)
	for i, s := range t.stamps {
		remap[i] = int32(len(stamps))
		if s.died == alive {
			if t.sup != nil {
				t.sup[len(stamps)] = t.sup[i]
			}
			args, stamps = append(args, t.row(i)...), append(stamps, s)
		}
	}
	if t.sup != nil {
		t.sup = t.sup[:n]
	}
	for p := range t.pos {
		for _, l := range t.pos[p].lists {
			for i, id := range l {
				l[i] = remap[id]
			}
		}
	}
	t.byKey.Renumber(remap)
	t.args, t.stamps, t.rows, t.dead = args, stamps, n, 0
}

// cands is what one atom ranges over: rows of a table, read at the
// reader's version — those ids names, or, when ids is nil, its first n
// —, or, when t is nil, n tuples of the atom's arity row-major in rows,
// read as they are (a pinned set, a chunk of a batch table, which has
// no stamps). n counts entries, rows the version does not see included.
type cands struct {
	t    *relTable
	ids  []int32
	rows []fact.ID
	n    int
}

// candidatesC returns the rows of t, the atom's table (nil when there
// is none), that can possibly match the compiled atom under the current
// environment: the narrowest per-argument list over all bound
// positions, or the whole table when no argument is bound yet. An empty
// probe short-circuits — no narrower candidate set exists.
func candidatesC(a cAtom, t *relTable, env []fact.ID) cands {
	if t == nil {
		return cands{}
	}
	best := cands{t: t, n: t.rows}
	for p, term := range a.terms {
		v := term.cnst
		if term.slot >= 0 {
			v = env[term.slot]
			if v == fact.NoID {
				continue
			}
		}
		l, ok := t.list(p, v)
		if !ok {
			return cands{}
		}
		if best.ids == nil || len(l) < best.n {
			best.ids, best.n = l, len(l)
		}
	}
	return best
}

// IndexedInstance is an instance as the engines evaluate against it:
// every fact stored once, in the row tables of a relIndex, read at one
// version. Adding a fact costs O(arity), removing one a stamp now and
// O(arity + degree) at the next Freeze, membership a hash probe at
// every version. Build one with IndexInstance and reuse it across
// fixpoint rounds and strata instead of re-indexing per call.
//
// Reads of an IndexedInstance are safe from multiple goroutines as long
// as no Add, Remove or Freeze is concurrent (the engines mutate only at
// round or phase barriers).
type IndexedInstance struct {
	idx *relIndex
	at  uint64 // latest, or the version a view froze
	n   int    // facts version at holds
}

// IndexInstance indexes a copy of the instance's facts: each relation's
// rows in Fact.Compare order, copied ID by ID with no Fact built.
func IndexInstance(i *fact.Instance) *IndexedInstance {
	x := &IndexedInstance{idx: &relIndex{tabs: make(map[tabKey]*relTable)}, at: latest}
	var t *relTable
	i.EachSortedIDs(func(rel fact.ID, args []fact.ID) {
		if t == nil || t.rel != rel || t.arity != len(args) {
			t = x.idx.tableFor(rel, len(args))
		}
		x.addIDs(t, args)
	})
	return x
}

// version is the index version reads go to; a view's must still be the
// last one frozen.
func (x *IndexedInstance) version() uint64 {
	if x.at != latest && x.at+1 != x.idx.ver {
		panic("datalog: read of a frozen view after a later Freeze")
	}
	return x.at
}

// open returns the version mutations are stamped with; a view has none.
func (x *IndexedInstance) open() uint64 {
	if x.at != latest {
		panic("datalog: a frozen view is read-only")
	}
	return x.idx.ver
}

// Add inserts the fact, reporting whether it was newly added.
func (x *IndexedInstance) Add(f fact.Fact) bool {
	x.open()
	return x.addIDs(x.idx.tableFor(f.RelID(), f.Arity()), f.ArgIDs())
}

// tableFor returns the table of rel at arity, made empty if there is
// none.
func (idx *relIndex) tableFor(rel fact.ID, arity int) *relTable {
	k := tabKey{rel, int32(arity)}
	t := idx.tabs[k]
	if t == nil {
		t = &relTable{rel: rel, arity: arity, pos: make([]postings, arity), byKey: fact.NewTupleIndex()}
		idx.tabs[k] = t
	}
	return t
}

// addIDs inserts the tuple into t, a table of the live x, unless x
// holds it, reporting whether it did: one byKey probe, which maps the
// tuple to the next row when it is new. The round barrier adds every
// head through it, and Add and IndexInstance every fact.
func (x *IndexedInstance) addIDs(t *relTable, args []fact.ID) bool {
	switch id, added := t.byKey.PutNew(args, t.args, int32(t.rows)); {
	case added:
		t.add(args, x.idx.ver)
	case t.stamps == nil || t.stamps[id].died == alive:
		return false
	default: // removed in the open version: the row the view sees is live again
		t.stamps[id].died = alive
		t.dead--
	}
	x.n++
	return true
}

// Remove deletes the fact, reporting whether it was present: its row is
// stamped dead from the open version on, no list is touched and nothing
// allocated; the row leaves lists and key hash at the next Freeze.
func (x *IndexedInstance) Remove(f fact.Fact) bool {
	ver := x.open()
	t, id, ok := x.idx.find(f.RelID(), f.ArgIDs(), latest)
	if !ok {
		return false
	}
	t.stampRows()
	t.stamps[id].died = ver
	t.dead++
	t.killed = append(t.killed, id)
	x.n--
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

// Freeze returns a read-only view of the instance as it is now: later
// mutations of the receiver are invisible to the view, and mutating the
// view panics. Nothing is copied — the view is the receiver's index
// read at the version this call closes. There is one view at a time:
// the next Freeze reclaims what only this one could still see, and
// reading it afterwards panics.
func (x *IndexedInstance) Freeze() *IndexedInstance {
	at := x.open()
	x.idx.freeze()
	return &IndexedInstance{idx: x.idx, at: at, n: x.n}
}

// Rels returns the names of the relations holding at least one fact, in
// no particular order: what a serving epoch with no predecessor starts
// a run for (internal/incr Epoch).
func (x *IndexedInstance) Rels() []string {
	at := x.version()
	var rels []string
	for k, t := range x.idx.tabs {
		name := string(fact.Symbol(k.rel))
		for id := int32(0); id < int32(t.rows) && !slices.Contains(rels, name); id++ {
			if t.sees(id, at) {
				rels = append(rels, name)
			}
		}
	}
	return rels
}

// RelList returns the facts of one relation, in index order (arity by
// arity, for a name used at several): what a serving epoch with no
// predecessor sorts (internal/incr Epoch). Take it between mutations.
func (x *IndexedInstance) RelList(rel string) []fact.Fact {
	id, _ := fact.LookupValue(fact.Value(rel))
	at := x.version()
	var out []fact.Fact
	for k, t := range x.idx.tabs {
		if k.rel != id {
			continue
		}
		out = slices.Grow(out, t.rows-t.dead)
		for i := range t.rows {
			if t.sees(int32(i), at) {
				out = append(out, fact.FromIDs(id, t.row(i)))
			}
		}
	}
	return out
}

// Rows returns the number of rows the index holds, dead ones awaiting
// compaction included: at most twice Len plus a constant after a Freeze.
func (x *IndexedInstance) Rows() int {
	n := 0
	for _, t := range x.idx.tabs {
		n += t.rows
	}
	return n
}

// Count returns the number of facts of relation rel at the arity in the
// live instance, its table's rows less the dead ones; a view has no
// count.
func (x *IndexedInstance) Count(rel fact.ID, arity int) int {
	t := x.idx.table(rel, arity)
	if x.open(); t == nil {
		return 0
	}
	return t.rows - t.dead
}

// Support returns the support record of the row byKey maps rel(args)
// to, whatever its stamp — a row taken back in the open version keeps
// its record, and a Freeze gives a dead one up —, or nil when there is
// none. The first call on a table gives its rows their records, zero
// like a new row's; the pointer is valid until the table's next row.
func (x *IndexedInstance) Support(rel fact.ID, args []fact.ID) *Support {
	t := x.idx.table(rel, len(args))
	if t == nil {
		return nil
	}
	id, ok := t.byKey.Get(args, t.args)
	if !ok {
		return nil
	}
	if t.sup == nil {
		t.sup = make([]Support, t.rows)
	}
	return &t.sup[id]
}

// Has reports whether the fact is present.
func (x *IndexedInstance) Has(f fact.Fact) bool {
	return x.hasIDs(f.RelID(), f.ArgIDs())
}

// hasIDs is Has for an unmaterialized (rel, args) tuple — the negation
// guards and the round executors' dedup test, allocation-free.
func (x *IndexedInstance) hasIDs(rel fact.ID, args []fact.ID) bool {
	_, _, ok := x.idx.find(rel, args, x.version())
	return ok
}

// Len returns the number of facts.
func (x *IndexedInstance) Len() int { return x.n }

// Instance materializes the facts as a fact.Instance of the caller's
// own: a copy of every row the version sees, for an evaluation that
// keeps its index (incr), not for a request path.
func (x *IndexedInstance) Instance() *fact.Instance {
	at := x.version()
	out := fact.NewInstance()
	for k, t := range x.idx.tabs {
		for id := range t.rows {
			if t.sees(int32(id), at) {
				out.AddIDs(k.rel, t.row(id))
			}
		}
	}
	return out
}

// handOver returns the facts as a fact.Instance that takes over every
// table's rows and key index instead of copying them: the end of an
// evaluation that owns x, which is unusable afterwards. It needs
// tables no row of which was removed, which a fixpoint never does.
func (x *IndexedInstance) handOver() *fact.Instance {
	tabs := make([]fact.Table, 0, len(x.idx.tabs))
	for k, t := range x.idx.tabs {
		if t.dead > 0 {
			panic("datalog: hand-over of a table with removed rows")
		}
		tabs = append(tabs, fact.Table{Rel: k.rel, Arity: t.arity, Args: t.args, Index: t.byKey})
	}
	x.idx = nil
	return fact.FromTables(tabs)
}
