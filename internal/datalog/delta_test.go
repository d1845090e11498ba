package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
)

// --- the valuation surface (Valuations, CountDerivations) ---

// ground applies the valuation to a source-level atom and returns the
// resulting fact. Every variable of the atom must be a variable of the
// compiled rule.
func ground(v *Valuation, a Atom) (fact.Fact, error) {
	ids := make([]fact.ID, 0, len(a.Args))
	for _, t := range a.Args {
		id := fact.NoID
		if !t.IsVar() {
			id = fact.Intern(t.Const)
		} else if s := slices.Index(v.cr.vars, t.Var); s >= 0 {
			id = v.env[s]
		}
		if id == fact.NoID {
			return fact.Fact{}, fmt.Errorf("datalog: unbound variable %s in %v", t.Var, a)
		}
		ids = append(ids, id)
	}
	return fact.FromIDs(fact.InternString(a.Rel), ids), nil
}

// head materializes the valuation's ground head as a fact of the
// caller's own.
func head(v *Valuation) (fact.Fact, error) {
	rel, args, err := v.Head()
	if err != nil {
		return fact.Fact{}, err
	}
	return fact.FromIDs(rel, args), nil
}

// TestGround: Head, Pos and Neg hand out the atoms the valuation
// grounds, as ids.
func TestGround(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b)`))
	r := mustRule(t, `O(x,"c") :- E(x,y), !F(y,x,"d").`)
	if err := x.Valuations(Compile(r), -1, nil, nil, func(v *Valuation) error {
		f, err := ground(v, r.Head)
		if err != nil {
			t.Fatalf("Ground: %v", err)
		}
		if !f.Equal(fact.New("O", "a", "c")) {
			t.Fatalf("Ground = %v, want O(a,c)", f)
		}
		if h, _ := head(v); !h.Equal(f) {
			t.Fatalf("Head = %v, Ground(head) = %v", h, f)
		}
		if p := fact.FromIDs(v.Pos(0)); !p.Equal(fact.New("E", "a", "b")) {
			t.Fatalf("Pos(0) = %v, want E(a,b)", p)
		}
		if n := fact.FromIDs(v.Neg(0)); !n.Equal(fact.New("F", "b", "a", "d")) {
			t.Fatalf("Neg(0) = %v, want F(b,a,d)", n)
		}
		if _, err := ground(v, AtomV("O", "x", "w")); err == nil {
			t.Fatal("Ground accepted a variable the rule does not have")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHeadUnification: a head fact restricts the enumeration to the
// derivations of exactly that fact, unified with the compiled head on
// interned IDs.
func TestHeadUnification(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(a,c) E(b,b) R(a,a,b) R(a,b,b)`))
	for _, tc := range []struct {
		name, rule string
		head       fact.Fact
		want       []string // valuations, as V(x,y)
	}{
		{"variables bound from the head", `O(x) :- E(x,y).`, fact.New("O", "a"), []string{"V(a,b)", "V(a,c)"}},
		{"head the body cannot produce", `O(x) :- E(x,y).`, fact.New("O", "c"), nil},
		{"relation mismatch", `O(x) :- E(x,y).`, fact.New("P", "a"), nil},
		{"arity mismatch", `O(x) :- E(x,y).`, fact.New("O", "a", "b"), nil},
		{"constant in head agrees", `O(x,"k") :- E(x,y).`, fact.New("O", "b", "k"), []string{"V(b,b)"}},
		{"constant in head differs", `O(x,"k") :- E(x,y).`, fact.New("O", "b", "j"), nil},
		{"repeated head variable agrees", `O(x,x,y) :- R(x,x,y).`, fact.New("O", "a", "a", "b"), []string{"V(a,b)"}},
		{"repeated head variable disagrees", `O(x,x,y) :- R(x,x,y).`, fact.New("O", "a", "b", "b"), nil},
		{"value no fact holds", `O(x) :- E(x,y).`, fact.New("O", "never-in-any-fact"), nil},
		{"head constant no fact holds", `O(x,"never-a-value") :- E(x,y).`, fact.New("O", "a", "b"), nil},
	} {
		head := tc.head
		got := valuations(t, x, tc.rule, -1, nil, &head, "x", "y")
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: valuations of %s with head %v = %v, want %v", tc.name, tc.rule, tc.head, got, tc.want)
		}
		c := Compile(mustRule(t, tc.rule))
		n, err := x.CountDerivations(c, tc.head)
		if err != nil || n != int64(len(tc.want)) {
			t.Errorf("%s: CountDerivations = %d, %v; want %d", tc.name, n, err, len(tc.want))
		}
	}
}

func TestValuationsPinned(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c) E(c,d)`))
	const rule = `T(x,z) :- E(x,y), E(y,z).`

	// Pinning E(b,c) at position 0 enumerates only joins through it.
	pin := fact.NewInstance(fact.New("E", "b", "c"))
	if got := valuations(t, x, rule, 0, pin, nil, "x", "z"); !reflect.DeepEqual(got, []string{"V(b,d)"}) {
		t.Fatalf("pinned valuations = %v, want [V(b,d)]", got)
	}
	// The pinned fact need not be present in the instance.
	ghost := fact.NewInstance(fact.New("E", "d", "e"))
	if got := valuations(t, x, rule, 1, ghost, nil, "x", "z"); !reflect.DeepEqual(got, []string{"V(c,e)"}) {
		t.Fatalf("ghost-pinned valuations = %v, want [V(c,e)]", got)
	}
	// A pin and a head compose: the derivations of one fact through one delta fact.
	head := fact.New("T", "a", "c")
	if got := valuations(t, x, rule, 1, pin, &head, "y"); !reflect.DeepEqual(got, []string{"V(b)"}) {
		t.Fatalf("pinned valuations of T(a,c) = %v, want [V(b)]", got)
	}
	// A pinned set's facts of other relations or arities are not the
	// atom's; an empty or nil set has no valuations; no pin joins every
	// atom.
	other := fact.NewInstance(fact.New("E", "b"), fact.New("F", "b", "c"), fact.New("E", "a", "b"))
	if got := valuations(t, x, rule, 0, other, nil, "x", "z"); !reflect.DeepEqual(got, []string{"V(a,c)"}) {
		t.Fatalf("valuations pinned to %v = %v, want [V(a,c)]", other, got)
	}
	if got := valuations(t, x, rule, 0, fact.NewInstance(), nil, "x"); got != nil {
		t.Fatalf("empty pinned set enumerated %v", got)
	}
	if got := valuations(t, x, rule, 0, nil, nil, "x"); got != nil {
		t.Fatalf("nil pinned set enumerated %v", got)
	}
	// An arity-0 atom pinned to a set ranges over its one fact, which has
	// no arguments, and over none when the set lacks it. Neither the
	// parser nor fact.New makes one; the compiler and the set do.
	gated := Compile(Rule{Head: AtomV("T", "x", "z"), Pos: []Atom{AtomV("Z"), AtomV("E", "x", "y"), AtomV("E", "y", "z")}})
	count := func(pinned *fact.Instance) (n int) {
		if err := x.Valuations(gated, 0, pinned, nil, func(*Valuation) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	zero := fact.NewInstance(fact.New("Z", "a"))
	if n := count(zero); n != 0 {
		t.Fatalf("an arity-0 atom pinned to {Z(a)} has %d valuations, want none", n)
	}
	zero.AddIDs(fact.InternString("Z"), nil)
	if n := count(zero); n != 2 {
		t.Fatalf("an arity-0 atom pinned to {Z(), Z(a)} has %d valuations, want 2", n)
	}
	if got := valuations(t, x, rule, -1, nil, nil, "x"); len(got) != 2 {
		t.Fatalf("unpinned valuations = %v, want 2", got)
	}
	c := Compile(mustRule(t, rule))
	for _, bad := range []int{2, -2} {
		if err := x.Valuations(c, bad, pin, nil, func(*Valuation) error { return nil }); err == nil {
			t.Fatalf("Valuations accepted out-of-range pin %d", bad)
		}
	}
}

func TestCountDerivations(t *testing.T) {
	// A diamond: T(a,d) has two length-2 derivations.
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,d) E(a,c) E(c,d)`))
	c := Compile(mustRule(t, `T(x,z) :- E(x,y), E(y,z).`))
	if n, err := x.CountDerivations(c, fact.New("T", "a", "d")); err != nil || n != 2 {
		t.Fatalf("CountDerivations(T(a,d)) = %d, %v; want 2", n, err)
	}
	if n, err := x.CountDerivations(c, fact.New("T", "d", "a")); err != nil || n != 0 {
		t.Fatalf("CountDerivations(T(d,a)) = %d, %v; want 0", n, err)
	}
}

// TestCountMatchesEnumeration is the differential for the thin form:
// over random programs evaluated to their stratified fixpoint,
// CountDerivations(f) is the number of enumerated valuations whose head
// is f — for every fact of the head relation and for heads nothing
// derives.
func TestCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		p, err := ParseProgram(generate.RandomProgram(rng, 1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsStratifiable() {
			continue
		}
		in := generate.RandomGraph(rng, "v", 1+rng.Intn(5), rng.Intn(8))
		out, err := p.EvalStratified(in, FixpointOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x := IndexInstance(out)
		for _, r := range p.Rules {
			c := Compile(r)
			perHead := make(map[string]int64)
			if err := x.Valuations(c, -1, nil, nil, func(v *Valuation) error {
				h, err := head(v)
				perHead[h.Key()]++
				return err
			}); err != nil {
				t.Fatal(err)
			}
			probes := out.Rel(r.Head.Rel)
			absent := make([]fact.Value, len(r.Head.Args))
			for i := range absent {
				absent[i] = "nowhere"
			}
			probes = append(probes, fact.New(r.Head.Rel, absent...))
			for _, f := range probes {
				n, err := x.CountDerivations(c, f)
				if err != nil {
					t.Fatal(err)
				}
				if want := perHead[f.Key()]; n != want {
					t.Fatalf("rule %v, fact %v: count %d; enumeration has %d\nprogram:\n%s\ninput: %v", r, f, n, want, p, in)
				}
				delete(perHead, f.Key())
				checked++
			}
			if len(perHead) != 0 {
				t.Fatalf("rule %v derives %d heads missing from its own fixpoint", r, len(perHead))
			}
		}
	}
	if checked < 500 {
		t.Fatalf("only %d facts checked; generator drifted", checked)
	}
}

// --- mutation and view semantics (Remove, RemoveAll, Freeze) ---

// relNames lists the facts of one relation as the matcher enumerates
// them from the index.
func relNames(t *testing.T, x *IndexedInstance, rel string, arity int) []string {
	t.Helper()
	vars := make([]string, arity)
	for i := range vars {
		vars[i] = "v" + string(rune('a'+i))
	}
	var out []string
	c := Compile(Rule{Head: AtomV(rel, vars...), Pos: []Atom{AtomV(rel, vars...)}})
	if err := x.Valuations(c, -1, nil, nil, func(v *Valuation) error {
		h, err := head(v)
		out = append(out, h.String())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// holdsExactly fails unless every way of reading x — Len, Has, RelList,
// and a join bound to each value at each argument position — sees the
// facts of want and none of gone.
func holdsExactly(t *testing.T, when string, x *IndexedInstance, want *fact.Instance, gone []fact.Fact) {
	t.Helper()
	if x.Len() != want.Len() {
		t.Errorf("%s: Len = %d, want %d", when, x.Len(), want.Len())
	}
	all := want.Clone()
	for _, f := range gone {
		if x.Has(f) {
			t.Errorf("%s: Has(%v) after its removal", when, f)
		}
		all.Add(f)
	}
	for _, f := range want.Facts() {
		if !x.Has(f) {
			t.Errorf("%s: Has(%v) = false for a survivor", when, f)
		}
	}
	rels := map[string]bool{}
	for _, f := range all.Facts() {
		rels[f.Rel()] = true
	}
	for rel := range rels {
		got := fact.FactStrings(x.RelList(rel))
		sort.Strings(got)
		if w := fact.FactStrings(want.Rel(rel)); !reflect.DeepEqual(got, w) && len(got)+len(w) > 0 {
			t.Errorf("%s: RelList(%s) = %v, want %v", when, rel, got, w)
		}
	}
	for _, f := range all.Facts() {
		vars := make([]string, f.Arity())
		for i := range vars {
			vars[i] = "v" + string(rune('a'+i))
		}
		body := AtomV(f.Rel(), vars...)
		for p := range vars {
			// Bound at p to f's value there: the survivors sharing it.
			head := fact.New("O", f.Arg(p))
			var got, w []string
			c := Compile(Rule{Head: AtomV("O", vars[p]), Pos: []Atom{body}})
			if err := x.Valuations(c, -1, nil, &head, func(v *Valuation) error {
				g, err := ground(v, body)
				got = append(got, g.String())
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for _, g := range want.Rel(f.Rel()) {
				if g.Arity() == f.Arity() && g.Arg(p) == f.Arg(p) {
					w = append(w, g.String())
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, w) {
				t.Errorf("%s: %s bound to %s at %d enumerates %v, want %v", when, f.Rel(), f.Arg(p), p, got, w)
			}
		}
	}
}

func TestRemoveAllBatches(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c) E(c,d) F(a) F(b)`))
	gone := []fact.Fact{fact.New("E", "a", "b"), fact.New("F", "b")}
	n := x.RemoveAll(append(gone[:2:2], fact.New("E", "z", "z"))) // absent: skipped, not counted
	if n != 2 {
		t.Fatalf("RemoveAll removed %d, want 2", n)
	}
	want := fact.MustParseInstance(`E(b,c) E(c,d) F(a)`)
	holdsExactly(t, "after the batch", x, want, gone)
	view := x.Freeze()
	holdsExactly(t, "after the next freeze", x, want, gone)
	holdsExactly(t, "in the frozen view", view, want, gone)

	// Across a compaction: enough dead rows to outnumber the live ones.
	var bulk []fact.Fact
	for i := 0; i < 3*compactFloor; i++ {
		f := fact.New("E", fact.Value(fmt.Sprint("n", i)), "c")
		bulk = append(bulk, f)
		x.Add(f)
	}
	if n := x.RemoveAll(bulk[1:]); n != len(bulk)-1 {
		t.Fatalf("RemoveAll removed %d of the bulk, want %d", n, len(bulk)-1)
	}
	want.Add(bulk[0])
	gone = append(gone, bulk[1:]...)
	// E(b,c) is removed and re-added in the version being compacted: both
	// readers find it, and after the rows are renumbered its key maps to
	// where its row went.
	bc := fact.New("E", "b", "c")
	if !x.Remove(bc) || !x.Add(bc) || !view.Has(bc) {
		t.Errorf("remove and re-add of %v before the compaction: view Has = %v", bc, view.Has(bc))
	}
	held := x.Rows()
	holdsExactly(t, "before the compacting freeze", x, want, gone)
	view = x.Freeze()
	if x.Rows() != want.Len()+1 { // F(b): one dead row is under the floor, and stays
		t.Errorf("Rows = %d after compaction (%d before), want the %d live ones and F's dead one", x.Rows(), held, want.Len())
	}
	holdsExactly(t, "after the compaction", x, want, gone)
	holdsExactly(t, "in the view frozen at the compaction", view, want, gone)
	if got := x.Instance(); !got.Equal(want) {
		t.Errorf("Instance() after the compaction = %v, want %v", got, want)
	}
	if !x.Remove(bc) || x.Has(bc) || !view.Has(bc) || !x.Add(bc) || !x.Has(bc) {
		t.Errorf("remove and re-add of %v after the compaction: live Has = %v, view Has = %v", bc, x.Has(bc), view.Has(bc))
	}
	holdsExactly(t, "after a re-add past the compaction", x, want, gone)
	holdsExactly(t, "in the view, the live instance having moved on", view, want, gone)
}

// TestFreezeIsolation: a frozen view answers reads and joins as of the
// freeze, whatever happens to the original afterwards.
func TestFreezeIsolation(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,c)`))
	view := x.Freeze()

	x.Add(fact.New("E", "c", "d"))
	x.Remove(fact.New("E", "a", "b"))

	if view.Len() != 2 {
		t.Errorf("view.Len = %d after mutating original, want 2", view.Len())
	}
	if !view.Has(fact.New("E", "a", "b")) || view.Has(fact.New("E", "c", "d")) {
		t.Error("view sees the original's mutations")
	}
	if got := relNames(t, view, "E", 2); !reflect.DeepEqual(got, []string{"E(a,b)", "E(b,c)"}) {
		t.Errorf("view enumerates %v, want the 2 snapshot facts", got)
	}
	if got := relNames(t, x, "E", 2); !reflect.DeepEqual(got, []string{"E(b,c)", "E(c,d)"}) {
		t.Errorf("original enumerates %v after its own mutations", got)
	}

	// Negation guards on a view read the snapshot, not the original.
	x.Add(fact.New("E", "b", "a")) // would block O(a) now
	pin := fact.NewInstance(fact.New("E", "a", "b"))
	if got := valuations(t, view, `O(x) :- E(x,y), !E(y,x).`, 0, pin, nil, "x"); len(got) != 1 {
		t.Fatalf("view negation saw post-snapshot facts: valuations = %v", got)
	}
	if got := valuations(t, x, `O(x) :- E(x,y), !E(y,x).`, 0, pin, nil, "x"); len(got) != 0 {
		t.Fatalf("original negation missed its own fact: valuations = %v", got)
	}

	// A fact removed and re-added inside one version: the old view and
	// the live instance each see it, once.
	bc := fact.New("E", "b", "c")
	x.Remove(bc)
	x.Add(bc)
	for name, r := range map[string]*IndexedInstance{"view": view, "original": x} {
		if got := valuations(t, r, `O(y) :- E("b",y).`, -1, nil, factPtr("O", "c"), "y"); len(got) != 1 {
			t.Errorf("%s sees the removed and re-added E(b,c) %d times, want once", name, len(got))
		}
		if !r.Has(bc) {
			t.Errorf("%s: Has(%v) = false after its removal and re-add inside one version", name, bc)
		}
	}
	// Removed once more, twice down the chain: the view still has it.
	if !x.Remove(bc) || x.Has(bc) || !view.Has(bc) || x.Remove(bc) {
		t.Errorf("after remove, add, remove of %v: live Has = %v, view Has = %v", bc, x.Has(bc), view.Has(bc))
	}
	if !x.Add(bc) || !x.Has(bc) || !view.Has(bc) || x.Add(bc) {
		t.Errorf("after the second re-add of %v: live Has = %v, view Has = %v", bc, x.Has(bc), view.Has(bc))
	}

	// A second freeze invalidates the first view: a panic, not stale rows.
	next := x.Freeze()
	if got := relNames(t, next, "E", 2); !reflect.DeepEqual(got, []string{"E(b,a)", "E(b,c)", "E(c,d)"}) {
		t.Errorf("second view enumerates %v", got)
	}
	for name, read := range map[string]func(){
		"Has":        func() { view.Has(fact.New("E", "a", "b")) },
		"RelList":    func() { view.RelList("E") },
		"Valuations": func() { relNames(t, view, "E", 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a view superseded by a later Freeze did not panic", name)
				}
			}()
			read()
		}()
	}
}

func TestFreezeIsReadOnly(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b)`))
	view := x.Freeze()
	for name, mutate := range map[string]func(){
		"Add":       func() { view.Add(fact.New("E", "c", "d")) },
		"Remove":    func() { view.Remove(fact.New("E", "a", "b")) },
		"RemoveAll": func() { view.RemoveAll([]fact.Fact{fact.New("E", "a", "b")}) },
		"Freeze":    func() { view.Freeze() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen view did not panic", name)
				}
			}()
			mutate()
		}()
	}
}
