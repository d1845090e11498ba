package fact

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// This file implements the process-wide symbol table that interns
// every domain value and relation name into a dense uint32 ID. The
// engines join, deduplicate and index on IDs instead of strings: an
// equality is one integer compare, a hash is an integer hash, and a
// packed tuple of IDs is a canonical fact key that needs no string
// building (the Fact.Key() hot-path cost that PERF.6 exposed).
//
// The table is append-only and shared by the whole process. Reads
// (ID -> string, string -> ID for already-interned values) are
// lock-free: the string -> ID direction is a sync.Map, and the
// ID -> string direction is a chunked spine published through an
// atomic pointer, so existing entries never move when the table
// grows. Writes take a mutex, but values are interned only when facts
// are first constructed from strings (parsing, generators); the
// fixpoint engines derive new facts from already-interned IDs and
// never touch the write path.
//
// IDs are assigned in interning order, which depends on the order the
// process first sees each string. Nothing observable may depend on ID
// order: every deterministic artifact (sorted instances, traces,
// snapshots) keeps ordering by string comparison (Fact.Compare).

// ID is an interned symbol: a dense handle for a domain value or a
// relation name. The zero ID is the empty string, so the zero Fact
// still reads as having an empty relation name.
type ID uint32

// NoID is the reserved sentinel meaning "no symbol" (used by the
// engines for unbound variable slots). Intern panics before handing
// it out.
const NoID = ^ID(0)

const (
	symChunkBits = 12
	symChunkSize = 1 << symChunkBits
	symChunkMask = symChunkSize - 1
)

type symChunk [symChunkSize]string

type symtab struct {
	ids   sync.Map // string -> ID
	spine atomic.Pointer[[]*symChunk]

	mu   sync.Mutex
	next ID
}

var symbols = newSymtab()

func newSymtab() *symtab {
	t := &symtab{}
	spine := make([]*symChunk, 1, 8)
	spine[0] = new(symChunk)
	t.spine.Store(&spine)
	t.intern("") // reserve ID 0 for the empty string
	return t
}

func (t *symtab) intern(s string) ID {
	if id, ok := t.ids.Load(s); ok {
		return id.(ID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids.Load(s); ok {
		return id.(ID)
	}
	id := t.next
	if id == NoID {
		panic("fact: symbol table full")
	}
	spine := *t.spine.Load()
	ci := int(id >> symChunkBits)
	if ci == len(spine) {
		grown := make([]*symChunk, ci+1, cap(spine)*2+1)
		copy(grown, spine)
		grown[ci] = new(symChunk)
		t.spine.Store(&grown)
		spine = grown
	}
	// The slot is written before the ID is published in t.ids; a
	// reader holding the ID acquired it through that map (or through
	// data handed over a synchronizing barrier), so the write is
	// visible.
	spine[ci][id&symChunkMask] = s
	t.ids.Store(s, id)
	t.next++
	return id
}

func (t *symtab) lookup(id ID) string {
	spine := *t.spine.Load()
	return spine[id>>symChunkBits][id&symChunkMask]
}

// Intern returns the ID of the value, assigning a fresh one on first
// sight. Safe for concurrent use; lookups of known values are
// lock-free.
func Intern(v Value) ID { return symbols.intern(string(v)) }

// InternString is Intern for relation names and other raw strings.
func InternString(s string) ID { return symbols.intern(s) }

// Symbol returns the string an ID was assigned for. The ID must have
// been returned by Intern/InternString; lookups are lock-free.
func Symbol(id ID) Value { return Value(symbols.lookup(id)) }

// LookupValue returns the ID of an already-interned value without
// interning it; ok is false when the value has never been seen, in
// which case no existing fact can contain it. Probe paths (index
// lookups, binding seeds) use this so queries against absent values
// don't grow the symbol table.
func LookupValue(v Value) (ID, bool) {
	if id, ok := symbols.ids.Load(string(v)); ok {
		return id.(ID), true
	}
	return NoID, false
}

// AppendPackedIDs appends the 4-byte little-endian encoding of each
// ID to buf. A packed (relation, args...) sequence is the canonical
// binary key of a fact: distinct facts have distinct packed keys with
// no string building. Packed keys are stable within a process but not
// across processes (IDs depend on interning order), so they must
// never leak into persistent artifacts — those keep using the textual
// forms.
func AppendPackedIDs(buf []byte, ids ...ID) []byte {
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}
