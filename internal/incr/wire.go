package incr

import (
	"encoding/json"
	"slices"
	"sort"
	"sync"

	"repro/internal/fact"
)

// This file is a run's wire form. A read response lists facts as JSON
// strings; an epoch keeps each fact's string already encoded, so a read
// copies bytes instead of rendering and marshaling the relation again,
// and a commit re-encodes only the facts it adds.

// chunkSize is the number of facts a chunk holds when a run is built,
// the last one up to twice as many. A patch keeps every chunk of a run
// of more than one between chunkSize/2 and 2·chunkSize facts, so a run
// of n facts has at most 2·⌈n/chunkSize⌉ chunks.
const chunkSize = 64

// chunk is a stretch of a run: facts in Fact.Compare order, kept as
// their argument IDs, and in wire each one's element — the JSON string
// encoding/json writes for its text, then a comma — element i at
// wire[off[i]:off[i+1]]. A chunk is one relation's; its facts share an
// arity, or at says where each one's arguments start. Immutable:
// epochs share every chunk no commit between them reached.
type chunk struct {
	rel   fact.ID
	arity int32 // of every fact, when at is nil
	ids   []fact.ID
	at    []int32
	off   []int32
	wire  []byte
}

func (c *chunk) len() int { return len(c.off) - 1 }

// fact returns fact i, over the chunk's own IDs.
func (c *chunk) fact(i int) fact.Fact {
	if c.at == nil {
		a := int(c.arity)
		return fact.Alias(c.rel, c.ids[i*a:(i+1)*a])
	}
	return fact.Alias(c.rel, c.ids[c.at[i]:c.at[i+1]])
}

func (c *chunk) elem(i int) []byte { return c.wire[c.off[i]:c.off[i+1]] }

// appendElem appends f's wire element to dst. The fact's text goes in
// between quotes as it is when every byte is printable ASCII that JSON
// leaves alone; anything else is that one string through json.Marshal,
// so the bytes are exactly what encoding/json writes for the list.
func appendElem(dst []byte, f fact.Fact) []byte {
	at := len(dst)
	dst = f.AppendString(append(dst, '"'))
	for _, c := range dst[at+1:] {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(string(dst[at+1:])) // a string always marshals
			return append(append(dst[:at], q...), ',')
		}
	}
	return append(dst, '"', ',')
}

// chunked is the wire form of a sorted fact list, every element encoded.
func chunked(facts []fact.Fact) []*chunk {
	b := newChunker(len(facts)/chunkSize + 1)
	for _, f := range facts {
		b.add(f, nil)
	}
	return b.done()
}

// patch returns the run cs without the facts of del and with those of
// add, both sorted, add disjoint from what is kept. A chunk the delta
// does not reach is shared; one it reaches is rebuilt with the elements
// it keeps copied and only add's encoded, split as it reaches
// 2·chunkSize, joined to a neighbour when it falls under chunkSize/2.
func patch(cs []*chunk, add, del []fact.Fact) []*chunk {
	if len(add) == 0 && len(del) == 0 {
		return cs
	}
	if len(cs) == 0 {
		return chunked(add)
	}
	b := newChunker(len(cs) + len(add)/chunkSize + 1)
	at := 0 // cs[:at] is dealt with
	for len(add) > 0 || len(del) > 0 {
		next := pick(add, del)
		// The chunk next falls in: the last whose first fact is not past it.
		j := at + sort.Search(len(cs)-at, func(k int) bool { return next.Compare(cs[at+k].fact(0)) < 0 }) - 1
		j = max(j, at)
		b.keep(cs[at:j])
		na, nd := len(add), len(del)
		if j+1 < len(cs) {
			bound := cs[j+1].fact(0)
			na = sort.Search(na, func(k int) bool { return add[k].Compare(bound) >= 0 })
			nd = sort.Search(nd, func(k int) bool { return del[k].Compare(bound) >= 0 })
		}
		b.rebuild(cs[j], add[:na], del[:nd])
		add, del = add[na:], del[nd:]
		at = j + 1
	}
	b.keep(cs[at:])
	return b.done()
}

// pick returns the least head of two sorted lists, not both empty.
func pick(a, b []fact.Fact) fact.Fact {
	if len(b) == 0 || (len(a) > 0 && a[0].Compare(b[0]) < 0) {
		return a[0]
	}
	return b[0]
}

// chunker lays a run out in chunks: facts enter one at a time, with
// their element when they have one, and leave in chunks once there are
// enough of them. The pending facts wait in scratch buffers, reused
// from one chunker to the next; a chunk gets its own exact copies.
type chunker struct {
	out []*chunk
	*scratch
}

type scratch struct {
	facts []fact.Fact
	ends  []int32 // ends[i] is where fact i's element ends in wire
	wire  []byte
}

var scratches = sync.Pool{New: func() any {
	return &scratch{facts: make([]fact.Fact, 0, 2*chunkSize), ends: make([]int32, 0, 2*chunkSize)}
}}

func newChunker(chunks int) *chunker {
	return &chunker{out: make([]*chunk, 0, chunks), scratch: scratches.Get().(*scratch)}
}

// add appends a fact, copying its element or, when elem is nil,
// encoding one.
func (b *chunker) add(f fact.Fact, elem []byte) {
	if elem == nil {
		b.wire = appendElem(b.wire, f)
	} else {
		b.wire = append(b.wire, elem...)
	}
	b.facts = append(b.facts, f)
	b.ends = append(b.ends, int32(len(b.wire)))
	if len(b.facts) == 2*chunkSize {
		b.flush(chunkSize)
	}
}

// absorb appends every fact of c.
func (b *chunker) absorb(c *chunk) {
	for i := range c.len() {
		b.add(c.fact(i), c.elem(i))
	}
}

// keep appends chunks whole: shared, once a pending short stretch has
// been joined to the first of them.
func (b *chunker) keep(cs []*chunk) {
	if len(cs) == 0 {
		return
	}
	if len(b.facts) > 0 {
		b.absorb(cs[0])
		b.flushAll()
		cs = cs[1:]
	}
	b.out = append(b.out, cs...)
}

// rebuild appends c's facts without del and with add, merged in order.
// What is left short waits for the next chunk to join it.
func (b *chunker) rebuild(c *chunk, add, del []fact.Fact) {
	for i := range c.len() {
		f := c.fact(i)
		for len(add) > 0 && add[0].Compare(f) < 0 {
			b.add(add[0], nil)
			add = add[1:]
		}
		for len(del) > 0 && del[0].Compare(f) < 0 {
			del = del[1:] // not in the run: nothing to drop
		}
		if len(del) > 0 && del[0].Equal(f) {
			del = del[1:]
			continue
		}
		b.add(f, c.elem(i))
	}
	for _, f := range add {
		b.add(f, nil)
	}
	if len(b.facts) >= chunkSize/2 {
		b.flushAll()
	}
}

// flush moves the first n pending facts into a chunk of their own.
func (b *chunker) flush(n int) {
	end, fs := b.ends[n-1], b.facts[:n]
	c := &chunk{rel: fs[0].RelID(), arity: int32(fs[0].Arity()), off: make([]int32, n+1), wire: slices.Clone(b.wire[:end])}
	ids := 0
	for _, f := range fs {
		if ids += f.Arity(); f.Arity() != int(c.arity) && c.at == nil {
			c.at = make([]int32, n+1)
		}
	}
	c.ids = make([]fact.ID, 0, ids)
	for i, f := range fs {
		c.ids = append(c.ids, f.ArgIDs()...)
		if c.at != nil {
			c.at[i+1] = int32(len(c.ids))
		}
	}
	copy(c.off[1:], b.ends[:n])
	b.out = append(b.out, c)
	b.facts = append(b.facts[:0], b.facts[n:]...)
	b.wire = append(b.wire[:0], b.wire[end:]...)
	b.ends = append(b.ends[:0], b.ends[n:]...)
	for i := range b.ends {
		b.ends[i] -= end
	}
}

// flushAll moves the pending facts into one chunk: add keeps them
// under 2·chunkSize, flushing chunkSize of them whenever they reach it.
func (b *chunker) flushAll() {
	if n := len(b.facts); n > 0 {
		b.flush(n)
	}
}

// done returns the chunks, a short pending stretch joined to the last,
// and hands the scratch buffers back.
func (b *chunker) done() []*chunk {
	if n := len(b.facts); n > 0 && n < chunkSize/2 && len(b.out) > 0 {
		last, short := b.out[len(b.out)-1], b.scratch
		b.out, b.scratch = b.out[:len(b.out)-1], scratches.Get().(*scratch)
		b.absorb(last)
		from := int32(0)
		for i, f := range short.facts {
			b.add(f, short.wire[from:short.ends[i]])
			from = short.ends[i]
		}
		release(short)
	}
	b.flushAll()
	release(b.scratch)
	return b.out
}

// release empties s and returns it to the pool, its facts cleared: a
// pooled buffer must not keep them alive.
func release(s *scratch) {
	clear(s.facts[:cap(s.facts)])
	s.facts, s.ends, s.wire = s.facts[:0], s.ends[:0], s.wire[:0]
	scratches.Put(s)
}

// Wire is a fact list in canonical order, as a read response carries
// it: the chunks of one relation, or of every relation of an epoch end
// to end — or the union of several such lists (Union), which AppendTo
// merges. The zero Wire is empty.
type Wire struct {
	lists   [][]*chunk
	n, size int
}

// Len and Size bound the facts AppendTo appends and the bytes they
// take: exact for one list, the sum of the parts' for a union, which
// writes a fact that more than one part holds once.
func (w Wire) Len() int  { return w.n }
func (w Wire) Size() int { return w.size }

func wireOf(cs []*chunk) Wire {
	w := Wire{lists: [][]*chunk{cs}}
	for _, c := range cs {
		w.n, w.size = w.n+c.len(), w.size+len(c.wire)
	}
	return w
}

// Union returns the union of the lists: one Wire that AppendTo writes
// as a k-way merge of them.
func Union(ws ...Wire) Wire {
	var u Wire
	for _, w := range ws {
		u.lists = append(u.lists, w.lists...)
		u.n, u.size = u.n+w.n, u.size+w.size
	}
	return u
}

// AppendTo appends the list's elements to dst, each fact's JSON string
// followed by a comma, and returns dst and how many it appended. One
// list is copied chunk by chunk; a union takes the least head of its
// lists until none is left — whole chunks at a time while one list runs
// ahead of the others — and drops a fact equal to the one before it.
func (w Wire) AppendTo(dst []byte) ([]byte, int) {
	if len(w.lists) == 1 {
		for _, c := range w.lists[0] {
			dst = append(dst, c.wire...)
		}
		return dst, w.n
	}
	lists := slices.Clone(w.lists) // consumed below
	at := make([]int, len(lists))  // position in each list's first chunk
	head := func(l int) fact.Fact { return lists[l][0].fact(at[l]) }
	n := 0
	var last fact.Fact
	for {
		least, second := -1, -1
		for l := range lists {
			if len(lists[l]) == 0 {
				continue
			}
			switch {
			case least < 0 || head(l).Compare(head(least)) < 0:
				least, second = l, least
			case second < 0 || head(l).Compare(head(second)) < 0:
				second = l
			}
		}
		if least < 0 {
			return dst, n
		}
		// The rest of the chunk when all of it comes before every other
		// head, else the one fact.
		c, from := lists[least][0], at[least]
		end := from + 1
		if second < 0 || c.fact(c.len()-1).Compare(head(second)) < 0 {
			end = c.len()
		}
		if n > 0 && c.fact(from).Equal(last) {
			from++ // held by two lists: written once
		}
		if from < end {
			dst = append(dst, c.wire[c.off[from]:c.off[end]]...)
			n, last = n+end-from, c.fact(end-1)
		}
		if at[least] = end; end == c.len() {
			lists[least], at[least] = lists[least][1:], 0
		}
	}
}
