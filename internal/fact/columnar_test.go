package fact

import (
	"math/rand"
	"slices"
	"testing"
)

// ids interns a list of strings for tuple literals in tests.
func ids(ss ...string) []ID {
	out := make([]ID, len(ss))
	for i, s := range ss {
		out[i] = InternString(s)
	}
	return out
}

// TestColumnSetSemantics runs the same add/has/remove script against
// both key shapes: arity 2 (the packed tuple is the key) and arity 3
// (a hashed key, confirmed by the row it names).
func TestColumnSetSemantics(t *testing.T) {
	cases := []struct {
		name   string
		arity  int
		tuples [][]ID
	}{
		{"arity2_k64", 2, [][]ID{ids("a", "b"), ids("b", "c"), ids("c", "a"), ids("a", "a")}},
		{"arity3_hashed", 3, [][]ID{ids("a", "b", "c"), ids("b", "c", "a"), ids("a", "a", "a"), ids("c", "b", "a")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newColumn(0, tc.arity)
			for i, tup := range tc.tuples {
				if !c.add(tup) {
					t.Fatalf("add(%v) = false on first insert", tup)
				}
				if c.add(tup) {
					t.Fatalf("add(%v) = true on duplicate", tup)
				}
				if c.rows() != i+1 {
					t.Fatalf("rows() = %d after %d inserts", c.rows(), i+1)
				}
			}
			for _, tup := range tc.tuples {
				if !c.has(tup) {
					t.Fatalf("has(%v) = false for present tuple", tup)
				}
			}
			// Swap-delete from the middle: the last row moves into the
			// hole and the index must follow it.
			victim := tc.tuples[1]
			if !c.remove(victim) {
				t.Fatal("remove of present tuple = false")
			}
			if c.remove(victim) {
				t.Fatal("remove of absent tuple = true")
			}
			if c.has(victim) {
				t.Fatal("removed tuple still present")
			}
			for i, tup := range tc.tuples {
				if i == 1 {
					continue
				}
				if !c.has(tup) {
					t.Fatalf("swap-delete lost tuple %v", tup)
				}
				if !c.remove(tup) {
					t.Fatalf("index stale after swap-delete: remove(%v) = false", tup)
				}
			}
			if c.rows() != 0 {
				t.Fatalf("rows() = %d after removing everything", c.rows())
			}
		})
	}
}

// TestColumnEachAndFact checks insertion-order iteration and that
// materialized facts stay valid across later mutation.
func TestColumnEachAndFact(t *testing.T) {
	rel := InternString("E")
	c := newColumn(rel, 2)
	c.add(ids("a", "b"))
	c.add(ids("b", "c"))
	f := c.fact(0)
	var seen [][]ID
	c.each(func(args []ID) bool {
		seen = append(seen, append([]ID(nil), args...))
		return true
	})
	if len(seen) != 2 || seen[0][0] != InternString("a") || seen[1][0] != InternString("b") {
		t.Fatalf("each order wrong: %v", seen)
	}
	c.remove(ids("a", "b"))
	if f.String() != "E(a,b)" {
		t.Fatalf("materialized fact mutated by column removal: %v", f)
	}
}

// TestColumnClone checks clones are fully independent.
func TestColumnClone(t *testing.T) {
	for _, arity := range []int{2, 3} {
		c := newColumn(0, arity)
		mk := func(s string) []ID {
			args := make([]ID, arity)
			for j := range args {
				args[j] = InternString(s)
			}
			return args
		}
		c.add(mk("p"))
		c.add(mk("q"))
		cl := c.clone()
		c.remove(mk("p"))
		cl.add(mk("r"))
		if !cl.has(mk("p")) || cl.rows() != 3 {
			t.Fatalf("arity %d: clone shares state with original", arity)
		}
		if c.has(mk("r")) || c.rows() != 1 {
			t.Fatalf("arity %d: original shares state with clone", arity)
		}
	}
}

// runWraps reports whether the probe run holding key k in t — from its
// home slot to the empty slot that ends the run — passes the end of the
// slot array, so that deleting k shifts entries across the wrap.
func runWraps(t *probeTable, k uint64) bool {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].row != 0 {
		if i == mask {
			return true
		}
		i = (i + 1) & mask
	}
	return false
}

// TestTupleIndexProperty (Type 1: exact) drives random sequences of
// Put, PutNew, Get, Delete, Renumber, clone and reset against a Go map
// of the same tuples, for every arity from 0 to 4, and checks every
// answer and the length after each step, and every tuple the oracle
// holds at the end of each phase. At arity <= 2 the rows are arbitrary
// numbers; at arity >= 3 each row put is a fresh row of a row-major
// holder that stores the tuple, as the index requires, and Renumber
// permutes the holder with the index. A first phase stays small (a few
// slots, most deletes inside one run, many runs wrapping past the end
// of the array); a second grows the index across several doublings and
// back. The test fails unless, for each arity from 1 on, some delete's
// run wrapped.
func TestTupleIndexProperty(t *testing.T) {
	const maxArity = 4
	var wrapsByArity [maxArity + 1]int
	grown := []int{1, 3000, 60, 16, 8} // per arity: a universe of about 3000 tuples
	for arity := 0; arity <= maxArity; arity++ {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := NewTupleIndex()
			if x.t.slots != nil {
				t.Fatalf("arity %d: a new index holds %d slots before its first insert", arity, len(x.t.slots))
			}
			oracle := map[[maxArity]ID]int32{}
			var holder []ID // arity >= 3: row r is holder[r*arity:(r+1)*arity]
			wraps, maxSlots := 0, 0
			tuple := func(universe int) []ID {
				args := make([]ID, arity)
				for j := range args {
					args[j] = ID(rng.Intn(universe))
				}
				return args
			}
			key := func(args []ID) (k [maxArity]ID) {
				copy(k[:], args)
				return k
			}
			rowFor := func(args []ID) int32 {
				if arity <= 2 {
					return int32(rng.Intn(1000))
				}
				holder = append(holder, args...)
				return int32(len(holder)/arity - 1)
			}
			check := func(step string, args []ID) {
				if got := x.len(); got != len(oracle) {
					t.Fatalf("arity %d seed %d, %s %v: len = %d, want %d", arity, seed, step, args, got, len(oracle))
				}
				want, held := oracle[key(args)]
				if row, ok := x.Get(args, holder); ok != held || (held && row != want) {
					t.Fatalf("arity %d seed %d, %s %v: Get = %d, %v; want %d, %v", arity, seed, step, args, row, ok, want, held)
				}
			}
			checkAll := func(step string) {
				for k, want := range oracle {
					if row, ok := x.Get(k[:arity], holder); !ok || row != want {
						t.Fatalf("arity %d seed %d, %s: Get(%v) = %d, %v; want %d", arity, seed, step, k[:arity], row, ok, want)
					}
				}
			}
			for phase, universe := range []int{4, grown[arity]} {
				steps := 600
				if phase == 1 {
					steps = 4000
				}
				for step := 0; step < steps; step++ {
					args := tuple(universe)
					if phase == 1 && step < steps/2 && rng.Intn(3) > 0 {
						args = tuple(universe) // growth: inserts outweigh deletes
						row := rowFor(args)
						x.put(args, holder, row)
						oracle[key(args)] = row
						check("Put", args)
						continue
					}
					switch op := rng.Intn(20); {
					case op < 5:
						row := rowFor(args)
						x.put(args, holder, row)
						oracle[key(args)] = row
						check("Put", args)
					case op < 10:
						row := rowFor(args)
						got, added := x.PutNew(args, holder, row)
						want, held := oracle[key(args)]
						if !held {
							want = row
							oracle[key(args)] = row
						}
						if added == held || got != want {
							t.Fatalf("arity %d seed %d: PutNew(%v, %d) = %d, %v; want %d, %v", arity, seed, args, row, got, added, want, !held)
						}
						check("PutNew", args)
					case op < 16:
						if x.t.n > 0 {
							if k, _, ok := x.t.lookup(args, holder); ok && runWraps(x.t, k) {
								wraps++
							}
						}
						x.Delete(args, holder)
						delete(oracle, key(args))
						check("Delete", args)
					case op < 17:
						check("Get", args)
					case op < 18:
						var remap []int32
						if arity <= 2 {
							remap = make([]int32, 1000)
							for r := range remap {
								remap[r] = int32(rng.Intn(1000))
							}
						} else { // a permutation, which the holder follows
							remap = make([]int32, len(holder)/arity)
							moved := make([]ID, len(holder))
							for r, to := range rng.Perm(len(remap)) {
								remap[r] = int32(to)
								copy(moved[to*arity:(to+1)*arity], holder[r*arity:(r+1)*arity])
							}
							holder = moved
						}
						x.Renumber(remap)
						for k, r := range oracle {
							oracle[k] = remap[r]
						}
						checkAll("Renumber")
					case op < 19:
						c := x.clone()
						moved := tuple(universe)
						x.put(moved, holder, rowFor(moved)) // the original moves on;
						x.Delete(tuple(universe), holder)   // the clone must not see it
						x = c
						checkAll("clone")
					default:
						if rng.Intn(10) == 0 {
							x.reset()
							clear(oracle)
							check("reset", args)
						}
					}
					maxSlots = max(maxSlots, len(x.t.slots))
				}
				checkAll("end of phase")
			}
			if arity >= 1 && maxSlots < 32*minSlots {
				t.Fatalf("arity %d seed %d: the index peaked at %d slots; the growth phase drifted", arity, seed, maxSlots)
			}
			wrapsByArity[arity] += wraps
		}
	}
	t.Logf("deletes whose probe run wrapped, per arity: %v", wrapsByArity)
	for arity := 1; arity <= maxArity; arity++ {
		if wrapsByArity[arity] == 0 {
			t.Errorf("arity %d: no delete's probe run wrapped past the end of the slot array; the generator drifted", arity)
		}
	}
}

// collidingWide returns two distinct arity-3 tuples with one wideKey.
// wideKey xors each ID into the running hash before mixing it, and the
// running hash of a prefix is the wideKey of that prefix; so once two
// two-ID prefixes give hashes that differ only in their low 32 bits (a
// birthday search over the high ones), third IDs c and c ^ that
// difference steer both tuples into one state.
func collidingWide(t *testing.T) (p, q []ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	seen := map[uint32][2]ID{}
	for range 1 << 20 {
		pre := [2]ID{ID(rng.Uint32()), ID(rng.Uint32())}
		h := wideKey(pre[:])
		prev, ok := seen[uint32(h>>32)]
		if !ok {
			seen[uint32(h>>32)] = pre
			continue
		}
		if prev == pre {
			continue
		}
		diff := ID(wideKey(prev[:]) ^ h)
		p, q = []ID{prev[0], prev[1], 9}, []ID{pre[0], pre[1], 9 ^ diff}
		if wideKey(p) != wideKey(q) {
			t.Fatalf("%v and %v were steered together but their keys differ", p, q)
		}
		return p, q
	}
	t.Fatal("no two prefixes share their high 32 hash bits")
	return nil, nil
}

// TestTupleIndexWideCollision plants two distinct arity-3 tuples on one
// key, in both insertion orders, and checks that each is found,
// replaced, renumbered, cloned and deleted on its own: a slot whose key
// matches is a hit only if the row it names holds the tuple.
func TestTupleIndexWideCollision(t *testing.T) {
	p, q := collidingWide(t)
	for _, pair := range [][2][]ID{{p, q}, {q, p}} {
		a, b := pair[0], pair[1]
		holder := slices.Concat(a, b, b, a) // rows 0 and 3 hold a, rows 1 and 2 hold b
		x := NewTupleIndex()
		want := func(step string, x TupleIndex, holder []ID, rowA, rowB int32) {
			t.Helper()
			n := 0
			for _, c := range []struct {
				args []ID
				row  int32
			}{{a, rowA}, {b, rowB}} {
				got, ok := x.Get(c.args, holder)
				if ok != (c.row >= 0) || ok && got != c.row {
					t.Fatalf("%s: Get(%v) = %d, %v; want row %d", step, c.args, got, ok, c.row)
				}
				if ok {
					n++
				}
			}
			if x.len() != n {
				t.Fatalf("%s: len = %d, want %d", step, x.len(), n)
			}
		}
		if _, added := x.PutNew(a, holder, 0); !added {
			t.Fatal("PutNew(a) on an empty index: not added")
		}
		if got, added := x.PutNew(b, holder, 1); !added || got != 1 {
			t.Fatalf("PutNew(b) = %d, %v: b was taken for a, which shares its key", got, added)
		}
		_, i, _ := x.t.lookup(a, holder)
		_, j, _ := x.t.lookup(b, holder)
		if i == j || x.t.slots[i].key() != x.t.slots[j].key() {
			t.Fatalf("a and b hold slots %d and %d with keys %x and %x; want two slots, one key", i, j, x.t.slots[i].key(), x.t.slots[j].key())
		}
		want("PutNew", x, holder, 0, 1)
		x.put(a, holder, 3)
		want("put(a)", x, holder, 3, 1)
		x.put(b, holder, 2)
		want("put(b)", x, holder, 3, 2)
		x.Renumber([]int32{-1, -1, 1, 0}) // rows 3 (a) and 2 (b) move to 0 and 1
		holder = slices.Concat(a, b)
		want("Renumber", x, holder, 0, 1)
		c := x.clone()
		x.Delete(a, holder)
		want("Delete(a)", x, holder, -1, 1)
		want("clone after Delete(a)", c, holder, 0, 1)
		c.Delete(b, holder)
		want("clone Delete(b)", c, holder, 0, -1)
		x.Delete(b, holder)
		want("Delete(b)", x, holder, -1, -1)
	}
}

// TestSmallColumnProperty runs random AddIDs/Remove/HasIDs/Reset/Clone
// streams over one relation at arities 1–4 (from 3 on, the wide-key
// path), holding 0–20 rows, against a map. The streams cross the
// promotion at row smallRows+1 in both directions — a promoted column
// shrinks below smallRows by swap-delete and keeps its index — and some
// start from a FromTables instance. After every step the instance
// answers as the map does, holds an index exactly when it has ever held
// more than smallRows rows, and walks its rows in EachSortedIDs in
// Facts order.
func TestSmallColumnProperty(t *testing.T) {
	const maxRows = 20
	rel := InternString("P")
	shrunk := 0 // streams that went below smallRows rows with an index
	for arity := 1; arity <= 4; arity++ {
		universe := make([][]ID, 24) // distinct tuples, more than maxRows
		for k := range universe {
			universe[k] = make([]ID, arity)
			for j := range universe[k] {
				universe[k][j] = Intern(Value(string(rune('a' + (k>>j)%5))))
			}
			universe[k][arity-1] = Intern(Value(rune('A' + k)))
		}
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			oracle := map[int]bool{}
			var i *Instance
			if seed%4 == 0 { // a handed-over table of 0–20 rows
				tab := Table{Rel: rel, Arity: arity, Index: NewTupleIndex()}
				for k := range rng.Intn(maxRows + 1) {
					tab.Args = append(tab.Args, universe[k]...)
					tab.Index.put(universe[k], tab.Args, int32(k))
					oracle[k] = true
				}
				i = FromTables([]Table{tab})
			} else {
				i = NewInstance()
			}
			promoted, low := len(oracle) > smallRows, false
			for step := range 300 {
				k := rng.Intn(len(universe))
				switch op := rng.Intn(20); {
				case op < 10 && len(oracle) < maxRows:
					if i.AddIDs(rel, universe[k]) == oracle[k] {
						t.Fatalf("arity %d seed %d step %d: AddIDs(%v) disagrees with the map", arity, seed, step, universe[k])
					}
					oracle[k] = true
				case op < 17:
					if i.Remove(FromIDs(rel, universe[k])) != oracle[k] {
						t.Fatalf("arity %d seed %d step %d: Remove(%v) disagrees with the map", arity, seed, step, universe[k])
					}
					delete(oracle, k)
				case op < 18:
					i.Reset()
					clear(oracle)
				case op < 19:
					c := i.Clone()
					if rng.Intn(2) == 0 {
						i.Reset() // the clone must not share the original's rows
					}
					i = c
				}
				promoted = promoted || len(oracle) > smallRows
				if promoted && len(oracle) < smallRows {
					low = true
				}
				if i.Len() != len(oracle) {
					t.Fatalf("arity %d seed %d step %d: Len = %d, want %d", arity, seed, step, i.Len(), len(oracle))
				}
				var want []Fact
				for k, tup := range universe {
					if i.HasIDs(rel, tup) != oracle[k] {
						t.Fatalf("arity %d seed %d step %d: HasIDs(%v) = %v", arity, seed, step, tup, !oracle[k])
					}
					if oracle[k] {
						want = append(want, FromIDs(rel, tup))
					}
				}
				if c := i.col(rel, arity); c != nil && (c.idx.t != nil) != promoted {
					t.Fatalf("arity %d seed %d step %d: %d rows, index %v, ever above %d rows %v", arity, seed, step, c.n, c.idx.t != nil, smallRows, promoted)
				}
				SortFacts(want)
				var got []Fact
				i.EachSortedIDs(func(r ID, args []ID) { got = append(got, FromIDs(r, args)) })
				if !slices.EqualFunc(got, want, Fact.Equal) {
					t.Fatalf("arity %d seed %d step %d: EachSortedIDs walked %v, want %v", arity, seed, step, got, want)
				}
			}
			if low {
				shrunk++
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("no stream shrank below smallRows rows after its promotion")
	}
}
