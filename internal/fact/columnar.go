package fact

import (
	"encoding/binary"
	"maps"
	"slices"
)

// This file implements the relation store behind Instance: per
// (relation, arity) the argument tuples live in one flat row-major slice
// of interned IDs, with a packed-key hash index for O(1) set semantics —
// the layout the join index's row tables (internal/datalog) share.
// Nothing here touches strings — membership, insertion and removal are
// pure integer work, which is what makes the fixpoint engines' dedup hot
// path allocation-free for duplicate derivations.

// TupleIndex maps the tuples of one arity to row numbers by packed key:
// a uint64 for arity <= 2 (the common case — edges, unary flags), a
// packed byte string for wider tuples. It is the set index of a column
// here and the membership probe of the row tables the join index keeps
// (internal/datalog); what a row number means is the holder's business.
type TupleIndex struct {
	k64  map[uint64]int32
	kstr map[string]int32
}

// NewTupleIndex returns an empty index for tuples of the given arity.
func NewTupleIndex(arity int) TupleIndex {
	if arity <= 2 {
		return TupleIndex{k64: make(map[uint64]int32)}
	}
	return TupleIndex{kstr: make(map[string]int32)}
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
	if x.k64 != nil {
		row, ok := x.k64[key64(args)]
		return row, ok
	}
	var scratch [64]byte
	row, ok := x.kstr[string(packTuple(scratch[:0], args))]
	return row, ok
}

// Put maps the tuple to row, replacing what it mapped to.
func (x TupleIndex) Put(args []ID, row int32) {
	if x.k64 != nil {
		x.k64[key64(args)] = row
		return
	}
	var scratch [64]byte
	x.kstr[string(packTuple(scratch[:0], args))] = row
}

// Delete removes the tuple's entry, if any.
func (x TupleIndex) Delete(args []ID) {
	if x.k64 != nil {
		delete(x.k64, key64(args))
		return
	}
	var scratch [64]byte
	delete(x.kstr, string(packTuple(scratch[:0], args)))
}

// Renumber replaces every row r the index maps to by remap[r].
func (x TupleIndex) Renumber(remap []int32) {
	for k, r := range x.k64 {
		x.k64[k] = remap[r]
	}
	for k, r := range x.kstr {
		x.kstr[k] = remap[r]
	}
}

func (x TupleIndex) clone() TupleIndex {
	return TupleIndex{k64: maps.Clone(x.k64), kstr: maps.Clone(x.kstr)}
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

// add inserts the tuple if absent, reporting whether it was new. The
// IDs are copied into the column; the caller keeps args.
func (c *column) add(args []ID) bool {
	if c.has(args) {
		return false
	}
	c.idx.Put(args, int32(c.n))
	if c.args == nil {
		c.args = make([]ID, 0, 4*c.arity) // four rows skip the first doublings of a growing column
	}
	c.args = append(c.args, args...)
	c.n++
	return true
}

// reset drops every row and keeps the storage: the args slice's
// capacity and the index's map.
func (c *column) reset() {
	if c.n == 0 {
		return
	}
	c.n, c.args = 0, c.args[:0]
	clear(c.idx.k64)
	clear(c.idx.kstr)
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
		c.idx.Put(last, row)
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
