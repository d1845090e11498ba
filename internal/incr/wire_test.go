package incr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fact"
)

// This file tests the chunks of wire.go on their own: a patched run
// must hold what a run built from scratch holds, fact for fact and byte
// for byte, with its chunks inside their bounds; and an element must be
// exactly what encoding/json writes for the fact's text.

// runFacts and runWire read a run back: its facts in order, and its
// elements end to end.
func runFacts(cs []*chunk) []fact.Fact {
	var fs []fact.Fact
	for _, c := range cs {
		for i := range c.len() {
			fs = append(fs, c.fact(i))
		}
	}
	return fs
}

func runWire(cs []*chunk) []byte {
	b, _ := wireOf(cs).AppendTo(nil)
	return b
}

// checkChunks asserts a run's shape: every chunk non-empty and at most
// 2·chunkSize, at least chunkSize/2 when there is more than one, its
// offsets covering its wire, and so at most 2·⌈n/chunkSize⌉ chunks.
func checkChunks(t *testing.T, what string, cs []*chunk) {
	t.Helper()
	n := 0
	for k, c := range cs {
		if c.len() == 0 || c.len() > 2*chunkSize || (len(cs) > 1 && c.len() < chunkSize/2) {
			t.Fatalf("%s: chunk %d of %d holds %d facts", what, k, len(cs), c.len())
		}
		if c.off[0] != 0 || int(c.off[c.len()]) != len(c.wire) {
			t.Fatalf("%s: chunk %d offsets %d..%d over %d bytes", what, k, c.off[0], c.off[c.len()], len(c.wire))
		}
		n += c.len()
	}
	if bound := 2 * ((n + chunkSize - 1) / chunkSize); len(cs) > bound {
		t.Fatalf("%s: %d facts in %d chunks, want at most %d", what, n, len(cs), bound)
	}
}

// TestPatchDifferential: 300 seeded runs, of one relation at mixed
// arities, patched ten times each by deltas from a single fact to
// several times the run — adds that split chunks, deletes that empty
// whole stretches and join what is left — must equal, facts and wire,
// the run chunked from the sorted result, and share every chunk the
// delta did not reach.
func TestPatchDifferential(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		domain := 3 + rng.Intn(40)
		draw := func() fact.Fact {
			v := func() fact.Value { return fact.Value(fmt.Sprintf("v%d", rng.Intn(domain))) }
			if rng.Intn(8) == 0 {
				return fact.New("R", v(), v(), v())
			}
			return fact.New("R", v(), v())
		}
		cur := fact.NewInstance()
		for k := rng.Intn(4 * chunkSize * (1 + rng.Intn(3))); k > 0; k-- {
			cur.Add(draw())
		}
		cs := chunked(cur.Facts())
		checkChunks(t, fmt.Sprintf("seed %d, built", seed), cs)
		for round := 0; round < 10; round++ {
			what := fmt.Sprintf("seed %d, round %d", seed, round)
			scale := []int{1, 4, chunkSize, 3 * chunkSize}[rng.Intn(4)]
			add, del := fact.NewInstance(), fact.NewInstance()
			for k := rng.Intn(scale + 1); k > 0; k-- {
				if f := draw(); !cur.Has(f) {
					add.Add(f)
				}
			}
			present := cur.Facts()
			for k := rng.Intn(scale + 1); k > 0 && len(present) > 0; k-- {
				if rng.Intn(2) == 0 {
					// a stretch: what empties chunks and joins their neighbours
					at := rng.Intn(len(present))
					for _, f := range present[at:min(len(present), at+rng.Intn(2*chunkSize))] {
						del.Add(f)
					}
				} else if f := draw(); !add.Has(f) {
					del.Add(f) // present or not: an absent one is nothing to drop
				}
			}
			before := slices.Clone(cs)
			cs = patch(cs, add.Facts(), del.Facts())
			cur = cur.Minus(del)
			cur.AddAll(add)
			checkChunks(t, what, cs)
			want := cur.Facts()
			if got := runFacts(cs); !slices.EqualFunc(got, want, fact.Fact.Equal) {
				t.Fatalf("%s: patched run holds %d facts, want %d:\n got %v\nwant %v", what, len(got), len(want), got, want)
			}
			if got, w := runWire(cs), runWire(chunked(want)); !bytes.Equal(got, w) {
				t.Fatalf("%s: patched wire\n got %s\nwant %s", what, got, w)
			}
			if add.Len() == 0 && del.Len() == 0 && !slices.Equal(cs, before) {
				t.Fatalf("%s: an empty delta rebuilt the run", what)
			}
			if add.Len() == 1 && del.Len() == 0 && len(before) > 4 {
				shared := 0
				for _, c := range cs {
					if slices.Contains(before, c) {
						shared++
					}
				}
				if shared < len(before)-2 {
					t.Fatalf("%s: one added fact kept %d of %d chunks", what, shared, len(before))
				}
			}
		}
	}
}

// wireSeeds are values JSON writes escaped: quote and backslash,
// the HTML-sensitive '<' '>' '&', control bytes, U+2028 and U+2029,
// multi-byte UTF-8, invalid UTF-8, and an empty value.
var wireSeeds = []string{"a", `"`, `\`, "<b>", "x&y", "\x01\n\t\x1f\x7f", "\u2028", "\u2029", "é", "日本", "\xff\xfe", "\xc3", ""}

// FuzzWireElement: a fact's element, and the wire of a run holding it
// beside a plain fact, are exactly what encoding/json writes for the
// fact's text, then a comma.
func FuzzWireElement(f *testing.F) {
	for _, a := range wireSeeds {
		for _, b := range []string{"b", "\u2028<"} {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		x, y := fact.New("E", fact.Value(a), fact.Value(b)), fact.New("E", "p", "q")
		want := func(fs ...fact.Fact) []byte {
			var out []byte
			for _, f := range fs {
				q, err := json.Marshal(f.String())
				if err != nil {
					t.Fatal(err)
				}
				out = append(append(out, q...), ',')
			}
			return out
		}
		if got := appendElem(nil, x); !bytes.Equal(got, want(x)) {
			t.Fatalf("element of %q\n got %s\nwant %s", x.String(), got, want(x))
		}
		run := []fact.Fact{x, y}
		fact.SortFacts(run)
		if got := runWire(chunked(run)); !bytes.Equal(got, want(run...)) {
			t.Fatalf("wire of %q\n got %s\nwant %s", fact.FactStrings(run), got, want(run...))
		}
	})
}
