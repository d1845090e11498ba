package incr

import (
	"sync"

	"repro/internal/datalog"
	"repro/internal/fact"
)

// This file is the MVCC surface of the materialization: Epoch turns
// the current committed state into an immutable snapshot that any
// number of readers may query concurrently while the (single) writer
// keeps applying deltas. This is the evaluation-side shadow of the
// paper's CALM story — for coordination-free programs reads never need
// to wait for writes, they only need a consistent grown state to run
// against — and the reason it is cheap is PR 4/6's copy-on-write
// index: publishing an epoch copies per-relation slice headers, not
// facts.

// Epoch is one immutable committed state of a Materialization: the
// fact set, the apply sequence number that produced it, and the base
// (edb) size. Epochs are safe for concurrent use by any number of
// goroutines, concurrently with later Apply calls on the parent
// materialization. Two epochs with the same Seq taken from the same
// materialization answer every query byte-identically — the serving
// layer's determinism guarantee is anchored here.
type Epoch struct {
	seq  int
	base int
	view *datalog.RelView

	mu   sync.Mutex
	rels map[string][]fact.Fact // Rel's sorted lists, built on first use
}

// Epoch publishes the current committed state as an immutable
// snapshot. It must be called from the same goroutine that calls
// Apply (the single writer), between — never during — applies.
func (m *Materialization) Epoch() *Epoch {
	return &Epoch{seq: m.seq, base: m.base.Len(), view: m.x.RelView(), rels: make(map[string][]fact.Fact)}
}

// Seq returns the apply sequence number the epoch was published at.
func (e *Epoch) Seq() int { return e.seq }

// Len returns the total number of materialized facts in the epoch.
func (e *Epoch) Len() int { return e.view.Len() }

// BaseLen returns the number of base (edb) facts in the epoch.
func (e *Epoch) BaseLen() int { return e.base }

// Rel returns the epoch's facts of one relation in canonical sorted
// order. The list is sorted once per epoch and shared by every caller:
// read it, do not modify it. A gathered read re-merges every shard's
// list after each write, and all but the written shard are unchanged.
// An empty list is not kept, so asking for relations the epoch does not
// hold leaves nothing behind.
func (e *Epoch) Rel(rel string) []fact.Fact {
	e.mu.Lock()
	defer e.mu.Unlock()
	fs, ok := e.rels[rel]
	if !ok {
		if fs = e.view.Rel(rel); len(fs) > 0 {
			e.rels[rel] = fs
		}
	}
	return fs
}

// Facts returns every fact in the epoch in canonical sorted order.
func (e *Epoch) Facts() []fact.Fact { return e.view.Facts() }

// Has reports whether the fact is in the epoch.
func (e *Epoch) Has(f fact.Fact) bool { return e.view.Has(f) }

// Err returns the corruption error if a maintenance phase failed and
// poisoned the materialization, else nil. A server publishing epochs
// checks it after each batch: when the materialization is corrupt the
// last good epoch stays current, so reads keep answering from the
// final consistent state while writes fail fast.
func (m *Materialization) Err() error { return m.corrupt }
