package fact

import "testing"

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
