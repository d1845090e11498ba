package fact

import (
	"math/rand"
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
// both index shapes: arity 2 (uint64-keyed) and arity 3 (byte-string
// keyed).
func TestColumnSetSemantics(t *testing.T) {
	cases := []struct {
		name   string
		arity  int
		tuples [][]ID
	}{
		{"arity2_k64", 2, [][]ID{ids("a", "b"), ids("b", "c"), ids("c", "a"), ids("a", "a")}},
		{"arity3_kstr", 3, [][]ID{ids("a", "b", "c"), ids("b", "c", "a"), ids("a", "a", "a"), ids("c", "b", "a")}},
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
// of the same tuples, for every arity from 0 to 3, and checks every
// answer and the length after each step, and every tuple the oracle
// holds at the end of each phase. A first phase stays small (a few
// slots, most deletes inside one run, many runs wrapping past the end
// of the array); a second grows the index across several doublings and
// back. The test fails unless, for each open-addressed arity, some
// delete's run wrapped.
func TestTupleIndexProperty(t *testing.T) {
	var wrapsByArity [3]int
	grown := []int{1, 3000, 60, 16} // per arity: a universe of about 3000 tuples
	for arity := 0; arity <= 3; arity++ {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := NewTupleIndex(arity)
			if arity <= 2 && x.t.slots != nil {
				t.Fatalf("arity %d: a new index holds %d slots before its first insert", arity, len(x.t.slots))
			}
			oracle := map[[3]ID]int32{}
			wraps, maxSlots := 0, 0
			tuple := func(universe int) []ID {
				args := make([]ID, arity)
				for j := range args {
					args[j] = ID(rng.Intn(universe))
				}
				return args
			}
			key := func(args []ID) (k [3]ID) {
				copy(k[:], args)
				return k
			}
			check := func(step string, args []ID) {
				if got := x.len(); got != len(oracle) {
					t.Fatalf("arity %d seed %d, %s %v: len = %d, want %d", arity, seed, step, args, got, len(oracle))
				}
				want, held := oracle[key(args)]
				if row, ok := x.Get(args); ok != held || (held && row != want) {
					t.Fatalf("arity %d seed %d, %s %v: Get = %d, %v; want %d, %v", arity, seed, step, args, row, ok, want, held)
				}
			}
			checkAll := func(step string) {
				for k, want := range oracle {
					if row, ok := x.Get(k[:arity]); !ok || row != want {
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
						row := int32(rng.Intn(1000))
						x.Put(args, row)
						oracle[key(args)] = row
						check("Put", args)
						continue
					}
					switch op := rng.Intn(20); {
					case op < 5:
						row := int32(rng.Intn(1000))
						x.Put(args, row)
						oracle[key(args)] = row
						check("Put", args)
					case op < 10:
						row := int32(rng.Intn(1000))
						got, added := x.PutNew(args, row)
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
						if arity <= 2 && x.t.n > 0 {
							if _, ok := x.t.find(key64(args)); ok && runWraps(x.t, key64(args)) {
								wraps++
							}
						}
						x.Delete(args)
						delete(oracle, key(args))
						check("Delete", args)
					case op < 17:
						check("Get", args)
					case op < 18:
						remap := make([]int32, 1000)
						for r := range remap {
							remap[r] = int32(rng.Intn(1000))
						}
						x.Renumber(remap)
						for k, r := range oracle {
							oracle[k] = remap[r]
						}
						checkAll("Renumber")
					case op < 19:
						c := x.clone()
						x.Put(tuple(universe), 1) // the original moves on;
						x.Delete(tuple(universe)) // the clone must not see it
						x = c
						checkAll("clone")
					default:
						if rng.Intn(10) == 0 {
							x.reset()
							clear(oracle)
							check("reset", args)
						}
					}
					if arity <= 2 {
						maxSlots = max(maxSlots, len(x.t.slots))
					}
				}
				checkAll("end of phase")
			}
			if arity >= 1 && arity <= 2 && maxSlots < 32*minSlots {
				t.Fatalf("arity %d seed %d: the index peaked at %d slots; the growth phase drifted", arity, seed, maxSlots)
			}
			if arity <= 2 {
				wrapsByArity[arity] += wraps
			}
		}
	}
	t.Logf("deletes whose probe run wrapped, per arity: %v", wrapsByArity)
	for arity := 1; arity <= 2; arity++ {
		if wrapsByArity[arity] == 0 {
			t.Errorf("arity %d: no delete's probe run wrapped past the end of the slot array; the generator drifted", arity)
		}
	}
}
