package fact

import (
	"encoding/binary"
	"maps"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// This file implements the relation store behind Instance: per
// (relation, arity) the argument tuples live in one flat row-major slice
// of interned IDs, with a packed-key hash index for O(1) set semantics —
// the layout the join index's row tables (internal/datalog) share.
// Nothing here touches strings — membership, insertion and removal are
// pure integer work, which is what makes the fixpoint engines' dedup hot
// path allocation-free for duplicate derivations.
//
// The index of arity <= 2 — every tuple the engines and the simulators
// store — is an open-addressed table of its own rather than a Go map: a
// probe hashes one packed key and walks a short run of adjacent slots,
// with no bucket indirection, and the datalog join index keys its
// posting lists with the same table.

// TupleIndex maps the tuples of one arity to row numbers by packed key:
// a uint64 for arity <= 2 (the common case — edges, unary flags), held
// in a linear-probing slot table, and a packed byte string in a Go map
// for wider tuples. It is the set index of a column here, the
// membership probe of the row tables the join index keeps and, keyed
// by (position, value), the directory of their posting lists
// (internal/datalog); what a row number means is the holder's business.
// A TupleIndex is a handle: copies share one table, which may grow
// under them. Get never writes, so one index may be read from several
// goroutines while nobody mutates it.
type TupleIndex struct {
	t    *probeTable      // arity <= 2
	kstr map[string]int32 // arity >= 3
}

// NewTupleIndex returns an empty index for tuples of the given arity.
// It reserves no slot: the first insert does.
func NewTupleIndex(arity int) TupleIndex {
	if arity <= 2 {
		return TupleIndex{t: new(probeTable)}
	}
	return TupleIndex{kstr: make(map[string]int32)}
}

// probeTable is an open-addressed hash table from packed keys to rows
// with linear probing. A slot holds the key and row+1, so a zeroed slot
// is empty and a fresh slot array needs no fill. Deletion is
// backward-shift: the entries after the hole that may move into it do,
// so there are no tombstones, a probe stops at the first empty slot and
// the load is exactly n over the slot count. The array is a power of
// two and doubles when an insert would take the load past 13/16.
type probeTable struct {
	slots []probeSlot
	n     int
	shift uint // 64 - log2(len(slots))
}

// probeSlot is one slot: the packed key split in two words, so a slot
// is 12 bytes, and row+1 (0 marks the slot empty).
type probeSlot struct {
	lo, hi uint32
	row    int32
}

// minSlots is the slot count of a table's first insert, and
// maxLoadNum/maxLoadDen the load an insert may not take a table past.
const (
	minSlots   = 8
	maxLoadNum = 13
	maxLoadDen = 16
)

// hashSeed perturbs every probe table's hash, drawn once per process:
// the tables index client-chosen facts (calmd), so slot positions must
// not be predictable from the keys. Nothing observable depends on slot
// order — Renumber, the only walk, is order-free.
var hashSeed = rand.Uint64()

// home returns the slot a key hashes to: the key folded and multiplied
// by the 64-bit golden ratio (Fibonacci hashing), top bits kept.
func (t *probeTable) home(k uint64) int {
	k ^= hashSeed
	k ^= k >> 32
	return int((k * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the slot holding key k, or the empty slot that ends its
// probe run, and whether k is there. The table has at least one slot.
func (t *probeTable) find(k uint64) (int, bool) {
	lo, hi := uint32(k), uint32(k>>32)
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.row == 0 {
			return i, false
		}
		if s.lo == lo && s.hi == hi {
			return i, true
		}
	}
}

// get returns the row of key k.
func (t *probeTable) get(k uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	i, ok := t.find(k)
	return t.slots[i].row - 1, ok
}

// put maps k to row unless it is mapped already; replace says whether
// an existing mapping is overwritten. It returns the row k maps to
// afterwards and whether k was new. The table grows before the probe,
// so an insert probes once: at the load bound, a key already there
// costs a doubling one insert early.
func (t *probeTable) put(k uint64, row int32, replace bool) (int32, bool) {
	if maxLoadDen*(t.n+1) > maxLoadNum*len(t.slots) {
		t.grow()
	}
	i, ok := t.find(k)
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
		i := t.home(uint64(s.hi)<<32 | uint64(s.lo))
		for t.slots[i].row != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// del removes key k, if present, by backward shift: walking the run
// after the hole, an entry whose home is not cyclically inside (hole,
// its slot] moves into the hole, which moves to where it was. The run
// may wrap past the end of the array; the distances are taken modulo
// its size.
func (t *probeTable) del(k uint64) {
	if t.n == 0 {
		return
	}
	hole, ok := t.find(k)
	if !ok {
		return
	}
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].row != 0; j = (j + 1) & mask {
		s := t.slots[j]
		h := t.home(uint64(s.hi)<<32 | uint64(s.lo))
		if (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = s
			hole = j
		}
	}
	t.slots[hole] = probeSlot{}
	t.n--
}

// renumber replaces every row r by remap[r].
func (t *probeTable) renumber(remap []int32) {
	for i := range t.slots {
		if r := t.slots[i].row; r != 0 {
			t.slots[i].row = remap[r-1] + 1
		}
	}
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

// packTuple appends the little-endian encoding of the tuple to buf
// (the arity >= 3 key, built in a stack scratch per probe).
func packTuple(buf []byte, args []ID) []byte {
	for _, id := range args {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// Get returns the row the tuple maps to.
func (x TupleIndex) Get(args []ID) (int32, bool) {
	if x.t != nil {
		return x.t.get(key64(args))
	}
	var scratch [64]byte
	row, ok := x.kstr[string(packTuple(scratch[:0], args))]
	return row, ok
}

// put maps the tuple to row, replacing what it mapped to.
func (x TupleIndex) put(args []ID, row int32) {
	if x.t != nil {
		x.t.put(key64(args), row, true)
		return
	}
	var scratch [64]byte
	x.kstr[string(packTuple(scratch[:0], args))] = row
}

// PutNew maps the tuple to row unless it is mapped already: one probe
// that is a Get when the tuple is there and a put when it is not. It
// returns the row the tuple maps to afterwards and whether it was new.
func (x TupleIndex) PutNew(args []ID, row int32) (int32, bool) {
	if x.t != nil {
		return x.t.put(key64(args), row, false)
	}
	var scratch [64]byte
	key := packTuple(scratch[:0], args)
	if old, ok := x.kstr[string(key)]; ok {
		return old, false
	}
	x.kstr[string(key)] = row
	return row, true
}

// Delete removes the tuple's entry, if any.
func (x TupleIndex) Delete(args []ID) {
	if x.t != nil {
		x.t.del(key64(args))
		return
	}
	var scratch [64]byte
	delete(x.kstr, string(packTuple(scratch[:0], args)))
}

// Renumber replaces every row r the index maps to by remap[r].
func (x TupleIndex) Renumber(remap []int32) {
	if x.t != nil {
		x.t.renumber(remap)
	}
	for k, r := range x.kstr {
		x.kstr[k] = remap[r]
	}
}

// len returns the number of tuples indexed.
func (x TupleIndex) len() int {
	if x.t != nil {
		return x.t.n
	}
	return len(x.kstr)
}

// reset drops every entry and keeps the storage.
func (x TupleIndex) reset() {
	if x.t != nil {
		clear(x.t.slots)
		x.t.n = 0
	}
	clear(x.kstr)
}

func (x TupleIndex) clone() TupleIndex {
	if x.t != nil {
		t := *x.t
		t.slots = slices.Clone(t.slots)
		return TupleIndex{t: &t}
	}
	return TupleIndex{kstr: maps.Clone(x.kstr)}
}

// column stores all tuples of one (relation, arity), row-major: row i
// is args[i*arity:(i+1)*arity]. Row order is insertion order; removal is
// swap-delete, so row indices are not stable across removals. Arity is
// part of a column's name, so same-named facts of two arities never mix.
type column struct {
	rel   ID
	arity int
	n     int
	args  []ID
	idx   TupleIndex
}

func newColumn(rel ID, arity int) column {
	return column{rel: rel, arity: arity, idx: NewTupleIndex(arity)}
}

func (c *column) rows() int { return c.n }

// row returns row i's tuple: the column's own storage, read-only and
// valid until the next mutation.
func (c *column) row(i int) []ID { return c.args[i*c.arity : (i+1)*c.arity] }

// has reports whether the tuple is present.
func (c *column) has(args []ID) bool {
	_, ok := c.idx.Get(args)
	return ok
}

// add inserts the tuple if absent, reporting whether it was new: one
// probe. The IDs are copied into the column; the caller keeps args.
func (c *column) add(args []ID) bool {
	if _, added := c.idx.PutNew(args, int32(c.n)); !added {
		return false
	}
	if c.args == nil {
		c.args = make([]ID, 0, 4*c.arity) // four rows skip the first doublings of a growing column
	}
	c.args = append(c.args, args...)
	c.n++
	return true
}

// reset drops every row and keeps the storage: the args slice's
// capacity and the index's slots.
func (c *column) reset() {
	if c.n == 0 {
		return
	}
	c.n, c.args = 0, c.args[:0]
	c.idx.reset()
}

// remove deletes the tuple if present (swap-delete), reporting whether
// it was there.
func (c *column) remove(args []ID) bool {
	row, ok := c.idx.Get(args)
	if !ok {
		return false
	}
	c.idx.Delete(args)
	c.n--
	if int(row) != c.n { // the last row moves into the hole
		last := c.row(c.n)
		copy(c.row(int(row)), last)
		c.idx.put(last, row)
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
