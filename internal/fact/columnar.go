package fact

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

// This file implements the relation store behind Instance: per
// (relation, arity) the argument tuples live in one flat row-major
// slice of interned IDs, with an open-addressed hash index for O(1)
// set semantics once it holds more than a few rows — the layout the
// join index's row tables (internal/datalog) share. Membership,
// insertion and removal are pure integer work, which is what makes
// the fixpoint engines' dedup hot path allocation-free.

// TupleIndex maps the tuples of one arity to row numbers: the set
// index of a column of more than smallRows rows here, the membership
// probe of the join index's row tables and, keyed by value, the
// directory of one position's posting lists (internal/datalog). Every
// arity shares one slot table and differs only in the key. A tuple of
// arity <= 2 is its own key, packed into a uint64. A wider one is
// keyed by a seeded hash of its IDs, which two tuples may share, so a
// key match is a hit only if the row it names holds the tuple: the
// probing calls take the holder's row-major storage, and at arity >=
// 3 row r must be rows[r*arity:(r+1)*arity] (at arity <= 2 rows is
// never read and may be nil). The index keeps no pointer to rows,
// since a holder may move (a column lives by value in a growing
// slice). A TupleIndex is a handle: copies share one table, which may
// grow under them. Get never writes, so one index may be read from
// several goroutines while nobody mutates it.
type TupleIndex struct{ t *probeTable }

// NewTupleIndex returns an empty index. It reserves no slot: the first
// insert does.
func NewTupleIndex() TupleIndex { return TupleIndex{new(probeTable)} }

// probeTable is an open-addressed hash table from 64-bit keys to rows
// with linear probing. A slot holds the key and row+1, so a zeroed slot
// is empty and a fresh slot array needs no fill. Deletion is
// backward-shift (Delete), so there are no tombstones, a probe stops at
// the first empty slot and the load is exactly n over the slot count.
// The array is a power of two and doubles when an insert would take
// the load past 13/16. Only a probe reads rows: growing, deleting,
// renumbering and cloning work from the stored keys alone.
type probeTable struct {
	slots []probeSlot
	n     int
	shift uint // 64 - log2(len(slots))
}

// probeSlot is one slot: the key split in two words, so a slot is 12
// bytes, and row+1 (0 marks the slot empty).
type probeSlot struct {
	lo, hi uint32
	row    int32
}

func (s probeSlot) key() uint64 { return uint64(s.hi)<<32 | uint64(s.lo) }

// minSlots is the slot count of a table's first insert, and
// maxLoadNum/maxLoadDen the load an insert may not take a table past.
const (
	minSlots   = 8
	maxLoadNum = 13
	maxLoadDen = 16
)

// hashSeed perturbs every slot hash and wide key, drawn once per
// process: the tables index client-chosen facts (calmd), so neither may
// be predictable from the tuple. Nothing observable depends on slot
// order — Renumber, the only walk, is order-free.
var hashSeed = rand.Uint64()

// home returns the slot a key hashes to: the key folded and multiplied
// by the 64-bit golden ratio (Fibonacci hashing), top bits kept.
func (t *probeTable) home(k uint64) int {
	k ^= hashSeed
	k ^= k >> 32
	return int((k * 0x9e3779b97f4a7c15) >> t.shift)
}

// key64 packs a tuple of arity <= 2 into one uint64. (Arity 0 — the
// zero Fact, representable though not constructible via New — packs
// to the single key 0.)
func key64(args []ID) uint64 {
	switch len(args) {
	case 0:
		return 0
	case 1:
		return uint64(args[0])
	}
	return uint64(args[0])<<32 | uint64(args[1])
}

// wideKey is the key of a tuple of arity >= 3: its IDs folded, one
// multiply-xorshift round each, into a hash seeded from hashSeed.
func wideKey(args []ID) uint64 {
	h := hashSeed
	for _, id := range args {
		h = (h ^ uint64(id)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// find returns the first slot from i on holding key k, or the empty
// slot that ends the probe run, and whether k is there. The table has
// at least one slot.
func (t *probeTable) find(i int, k uint64) (int, bool) {
	lo, hi := uint32(k), uint32(k>>32)
	mask := len(t.slots) - 1
	for ; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.row == 0 {
			return i, false
		}
		if s.lo == lo && s.hi == hi {
			return i, true
		}
	}
}

// lookup returns the tuple's key, the slot holding it (or the empty
// slot that ends its probe run) and whether it is there. A narrow
// tuple is found by its key; a wide one by a key whose slot names a
// row of rows that holds it.
func (t *probeTable) lookup(args, rows []ID) (uint64, int, bool) {
	if len(args) <= 2 {
		k := key64(args)
		i, ok := t.find(t.home(k), k)
		return k, i, ok
	}
	k, a := wideKey(args), len(args)
	for i := t.home(k); ; i = (i + 1) & (len(t.slots) - 1) {
		var ok bool
		i, ok = t.find(i, k)
		if r := int(t.slots[i].row - 1); !ok || slices.Equal(rows[r*a:(r+1)*a], args) {
			return k, i, ok
		}
	}
}

// put maps the tuple to row unless it is mapped already; replace says
// whether an existing mapping is overwritten. It returns the row the
// tuple maps to afterwards and whether it was new. The table grows
// before the probe, so an insert probes once: at the load bound, a
// tuple already there costs a doubling one insert early.
func (t *probeTable) put(args, rows []ID, row int32, replace bool) (int32, bool) {
	if maxLoadDen*(t.n+1) > maxLoadNum*len(t.slots) {
		t.grow()
	}
	k, i, ok := t.lookup(args, rows)
	s := &t.slots[i]
	if ok {
		if replace {
			s.row = row + 1
		}
		return s.row - 1, false
	}
	*s = probeSlot{lo: uint32(k), hi: uint32(k >> 32), row: row + 1}
	t.n++
	return row, true
}

// grow doubles the slot array (or makes the first) and reinserts every
// entry.
func (t *probeTable) grow() {
	old := t.slots
	size := max(minSlots, 2*len(old))
	t.slots = make([]probeSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.row == 0 {
			continue
		}
		i := t.home(s.key())
		for t.slots[i].row != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Get returns the row the tuple maps to.
func (x TupleIndex) Get(args, rows []ID) (int32, bool) {
	if x.t.n == 0 {
		return 0, false
	}
	_, i, ok := x.t.lookup(args, rows)
	return x.t.slots[i].row - 1, ok
}

// put maps the tuple to row, replacing what it mapped to.
func (x TupleIndex) put(args, rows []ID, row int32) { x.t.put(args, rows, row, true) }

// PutNew maps the tuple to row unless it is mapped already: one probe
// that is a Get when the tuple is there and a put when it is not. It
// returns the row the tuple maps to afterwards and whether it was new.
// A new tuple's row is not read: the holder may store it afterwards.
func (x TupleIndex) PutNew(args, rows []ID, row int32) (int32, bool) {
	return x.t.put(args, rows, row, false)
}

// Delete removes the tuple's entry, if any, by backward shift: walking
// the run after the hole, an entry whose home is not cyclically inside
// (hole, its slot] moves into the hole, which moves to where it was.
// The run may wrap past the end of the array; the distances are taken
// modulo its size.
func (x TupleIndex) Delete(args, rows []ID) {
	t := x.t
	if t.n == 0 {
		return
	}
	_, hole, ok := t.lookup(args, rows)
	if !ok {
		return
	}
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].row != 0; j = (j + 1) & mask {
		s := t.slots[j]
		if h := t.home(s.key()); (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = s
			hole = j
		}
	}
	t.slots[hole] = probeSlot{}
	t.n--
}

// Renumber replaces every row r the index maps to by remap[r].
func (x TupleIndex) Renumber(remap []int32) {
	for i := range x.t.slots {
		if r := x.t.slots[i].row; r != 0 {
			x.t.slots[i].row = remap[r-1] + 1
		}
	}
}

// len returns the number of tuples indexed.
func (x TupleIndex) len() int { return x.t.n }

// reset drops every entry and keeps the storage.
func (x TupleIndex) reset() {
	clear(x.t.slots)
	x.t.n = 0
}

// clone returns an independent copy; the zero TupleIndex clones to
// itself.
func (x TupleIndex) clone() TupleIndex {
	if x.t == nil {
		return x
	}
	t := *x.t
	t.slots = slices.Clone(t.slots)
	return TupleIndex{&t}
}

// smallRows is the most rows a column holds without a key index: up to
// it a probe scans the rows, which for the node states, inboxes and
// send sets of a simulation is as fast as hashing and saves the index's
// table. The index is built when the column gains row smallRows+1 and
// kept from then on.
const smallRows = 8

// column stores all tuples of one (relation, arity), row-major: row i
// is args[i*arity:(i+1)*arity]. Row order is insertion order; removal is
// swap-delete, so row indices are not stable across removals. Arity is
// part of a column's name, so same-named facts of two arities never mix.
// idx is the zero TupleIndex until the column first holds more than
// smallRows rows.
type column struct {
	rel   ID
	arity int
	n     int
	args  []ID
	idx   TupleIndex
}

func newColumn(rel ID, arity int) column {
	return column{rel: rel, arity: arity}
}

func (c *column) rows() int { return c.n }

// row returns row i's tuple: the column's own storage, read-only and
// valid until the next mutation.
func (c *column) row(i int) []ID { return c.args[i*c.arity : (i+1)*c.arity] }

// find returns the row holding the tuple: the index's probe, or a scan
// of the rows while there is no index.
func (c *column) find(args []ID) (int, bool) {
	if c.idx.t != nil {
		r, ok := c.idx.Get(args, c.args)
		return int(r), ok
	}
	for r, a := 0, c.arity; r < c.n; r++ {
		if slices.Equal(c.args[r*a:(r+1)*a], args) {
			return r, true
		}
	}
	return 0, false
}

// has reports whether the tuple is present.
func (c *column) has(args []ID) bool {
	_, ok := c.find(args)
	return ok
}

// add inserts the tuple if absent, reporting whether it was new: one
// probe. The IDs are copied into the column; the caller keeps args.
func (c *column) add(args []ID) bool {
	if c.idx.t != nil {
		if _, added := c.idx.PutNew(args, c.args, int32(c.n)); !added {
			return false
		}
	} else if _, ok := c.find(args); ok {
		return false
	}
	if c.args == nil {
		c.args = make([]ID, 0, 4*c.arity) // four rows skip the first doublings of a growing column
	}
	c.args = append(c.args, args...)
	c.n++
	if c.n == smallRows+1 && c.idx.t == nil {
		c.idx = NewTupleIndex()
		for r := range c.n {
			c.idx.put(c.row(r), c.args, int32(r))
		}
	}
	return true
}

// reset drops every row and keeps the storage: the args slice's
// capacity and the index's slots, if it has one.
func (c *column) reset() {
	if c.n == 0 {
		return
	}
	c.n, c.args = 0, c.args[:0]
	if c.idx.t != nil {
		c.idx.reset()
	}
}

// remove deletes the tuple if present (swap-delete), reporting whether
// it was there.
func (c *column) remove(args []ID) bool {
	row, ok := c.find(args)
	if !ok {
		return false
	}
	indexed := c.idx.t != nil
	if indexed {
		c.idx.Delete(args, c.args)
	}
	c.n--
	if row != c.n { // the last row moves into the hole
		last := c.row(c.n)
		copy(c.row(row), last)
		if indexed {
			c.idx.put(last, c.args, int32(row))
		}
	}
	c.args = c.args[:c.n*c.arity]
	return true
}

// fact materializes row i as a Fact. The args are copied: a returned
// Fact stays valid (and immutable) across later mutations of the
// column.
func (c *column) fact(i int) Fact {
	return FromIDs(c.rel, c.row(i))
}

// each calls fn for every row in insertion order, stopping early on
// false. fn receives the row itself, valid only for the call.
func (c *column) each(fn func(args []ID) bool) {
	for i := 0; i < c.n; i++ {
		if !fn(c.row(i)) {
			return
		}
	}
}

// clone returns an independent copy of the column.
func (c *column) clone() column {
	return column{rel: c.rel, arity: c.arity, n: c.n, args: slices.Clone(c.args), idx: c.idx.clone()}
}
