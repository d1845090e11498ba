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

// diffRules are the reads the differential test compares: a whole
// table, a join through argument lists, a guard on the relation used at
// two arities, a repeated variable and constants.
func diffRules(t *testing.T) []*CompiledRule {
	rules := []*CompiledRule{Compile(Rule{ // the parser refuses E at two arities
		Head: AtomV("N", "x", "y"), Pos: []Atom{AtomV("E", "x", "y")}, Neg: []Atom{AtomV("E", "y")},
	})}
	for _, src := range []string{
		`O(x,y) :- E(x,y).`,
		`J(x,z) :- E(x,y), R(y,z,w).`,
		`S(x) :- R(x,y,y).`,
		`B(y) :- E("v0",y), R(y,"v1",z).`,
	} {
		rules = append(rules, Compile(mustRule(t, src)))
	}
	return rules
}

// reads is everything one IndexedInstance answers about a universe of
// facts: exact, so two instances holding the same facts must agree.
type reads struct {
	Len    int
	Has    []bool
	Vals   [][]string         // per rule: its valuations, sorted
	Counts []map[string]int64 // per rule: derivations of each head
}

// readAll collects x's reads, enumerating on workers goroutines at once.
func readAll(t *testing.T, x *IndexedInstance, universe []fact.Fact, workers int) reads {
	t.Helper()
	got := reads{Len: x.Len(), Has: make([]bool, len(universe))}
	for i, f := range universe {
		got.Has[i] = x.Has(f)
	}
	rules := diffRules(t)
	got.Vals = make([][]string, len(rules))
	got.Counts = make([]map[string]int64, len(rules))
	if err := parallelEach(workers, len(rules), func(_, i int) error {
		c := rules[i]
		heads := map[string]fact.Fact{}
		if err := x.Valuations(c, -1, nil, nil, func(v *Valuation) error {
			h, err := head(v)
			if err != nil {
				return err
			}
			heads[h.String()] = h
			g, err := ground(v, AtomV("V", c.cr.vars...))
			got.Vals[i] = append(got.Vals[i], g.String())
			return err
		}); err != nil {
			return err
		}
		sort.Strings(got.Vals[i])
		got.Counts[i] = map[string]int64{}
		for k, h := range heads {
			n, err := x.CountDerivations(c, h)
			if n == 0 || err != nil {
				return fmt.Errorf("%v: CountDerivations(%v) = %d, %v for an enumerated head", c.cr.src, h, n, err)
			}
			got.Counts[i][k] = n
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestIndexDifferential (Type 1: exact, one failure is a bug) drives a
// random Add/RemoveAll/Freeze stream over E (arities 1 and 2) and R
// (arity 3) and holds the row index to a fact.Instance the test keeps
// itself, fact by fact, beside the stream: every Add and RemoveAll
// answers as the reference does; at every freeze the view, and the live
// instance, read as IndexInstance over the reference at that moment
// does, and the view still does after the live instance moved on — past
// facts removed and added again in the version the view cannot see;
// Instance() of the live index, killed rows not yet purged, and of the
// view equal the reference. Beside the facts the stream writes a value
// to the support record of about every other row it adds, and after
// every step each live tuple's record is what the stream last wrote
// to it: kept when the open version takes a removed row back, zero on
// a new row, a tuple's first or one purged at a Freeze, and moved with
// its row by compaction. Every stream crosses at least one compaction,
// and the seeds together take written records back and write over
// purged ones. Run under -race: the view is enumerated by several
// goroutines at once.
func TestIndexDifferential(t *testing.T) {
	vals := []fact.Value{"v0", "v1", "v2", "v3", "v4"}
	var universe []fact.Fact
	for _, a := range vals {
		universe = append(universe, fact.New("E", a))
		for _, b := range vals {
			universe = append(universe, fact.New("E", a, b))
			for _, c := range vals {
				universe = append(universe, fact.New("R", a, b, c))
			}
		}
	}
	kept, fresh := 0, 0 // re-adds taking a written record back, and new rows of a tuple once written
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, ref := IndexInstance(fact.NewInstance()), fact.NewInstance()
		var view *IndexedInstance
		var frozen reads
		compactions, readded := 0, 0
		sinceFreeze := map[string]bool{}          // removed since the last freeze
		written := make([]Support, len(universe)) // the record each tuple's row should carry
		check := func(when string, got, want reads) {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s:\n got %+v\nwant %+v", seed, when, got, want)
			}
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(20); {
			case k == 0:
				if view != nil {
					check("view before the next freeze", readAll(t, view, universe, 4), frozen)
				}
				if got := x.Instance(); !got.Equal(ref) {
					t.Fatalf("seed %d: Instance() over %d rows = %v, want %v", seed, x.Rows(), got, ref)
				}
				held := x.Rows()
				view = x.Freeze()
				if x.Rows() < held {
					compactions++
				}
				clear(sinceFreeze)
				frozen = readAll(t, IndexInstance(ref), universe, 1)
				check("view at its freeze", readAll(t, view, universe, 4), frozen)
				check("live against the reference", readAll(t, x, universe, 1), frozen)
				if got := view.Instance(); !got.Equal(ref) {
					t.Fatalf("seed %d: the view's Instance() = %v, want %v", seed, got, ref)
				}
			case k < 9:
				batch := make([]fact.Fact, 1+rng.Intn(12))
				want := 0
				for i := range batch {
					batch[i] = universe[rng.Intn(len(universe))]
					if ref.Remove(batch[i]) {
						want++
						sinceFreeze[batch[i].Key()] = true
					}
				}
				if n := x.RemoveAll(batch); n != want {
					t.Fatalf("seed %d: RemoveAll removed %d of %v, want %d", seed, n, batch, want)
				}
			default:
				i := rng.Intn(len(universe))
				f := universe[i]
				added := ref.Add(f)
				if x.Add(f) != added {
					t.Fatalf("seed %d: Add(%v) = %v, the reference says %v", seed, f, !added, added)
				}
				switch {
				case !added:
				case sinceFreeze[f.Key()]:
					readded++
					if written[i] != (Support{}) {
						kept++
					}
				case written[i] != (Support{}):
					fresh++
					written[i] = Support{}
				}
				if added && rng.Intn(2) == 0 {
					written[i] = Support{N: uint32(op + 1), Rank: uint32(seed)}
					*x.Support(f.RelID(), f.ArgIDs()) = written[i]
				}
			}
			if x.Len() != ref.Len() {
				t.Fatalf("seed %d, op %d: Len = %d, want %d", seed, op, x.Len(), ref.Len())
			}
			for i, f := range universe {
				if !ref.Has(f) {
					continue
				}
				if got := x.Support(f.RelID(), f.ArgIDs()); got == nil || *got != written[i] {
					t.Fatalf("seed %d, op %d: the record of %v is %v, want %+v", seed, op, f, got, written[i])
				}
			}
		}
		if compactions == 0 || readded == 0 {
			t.Fatalf("seed %d: the stream crossed %d compactions and %d re-adds inside one version; the generator drifted", seed, compactions, readded)
		}
	}
	if kept == 0 || fresh == 0 {
		t.Fatalf("%d written records taken back and %d tuples re-added after a purge; the generator drifted", kept, fresh)
	}
}

// slotsOf returns the slot count of a fact.TupleIndex, read through
// reflection: the table is fact's own.
func slotsOf(x fact.TupleIndex) int {
	return reflect.ValueOf(x).FieldByName("t").Elem().FieldByName("slots").Len()
}

// TestChurnIsBounded (Type 1) runs the churn of churnIsBounded on an
// empty index.
func TestChurnIsBounded(t *testing.T) {
	churnIsBounded(t, IndexInstance(fact.NewInstance()))
}

// churnIsBounded runs 10⁴ cycles of Add, Remove and Freeze on x over
// the same 100 facts of a relation C of its own, each of whose values
// is its own, so every removal empties two posting lists and every
// re-add needs them again. Both positions are probed before the churn,
// so both keep lists throughout. Afterwards the posting-list slots, the
// slot tables of byVal and byKey and the rows of C stay within a
// constant factor of the 100 facts: a list freeze empties gives its
// slot back, and a new key takes it.
func churnIsBounded(t *testing.T, x *IndexedInstance) {
	t.Helper()
	const facts = 100
	universe := make([]fact.Fact, facts)
	for i := range universe {
		universe[i] = fact.New("C", fact.Value(fmt.Sprint("a", i)), fact.Value(fmt.Sprint("b", i)))
	}
	rng := rand.New(rand.NewSource(1))
	x.Add(universe[0])
	tab := x.idx.table(fact.InternString("C"), 2)
	for p, v := range universe[0].ArgIDs() {
		tab.list(p, v)
	}
	for cycle := 0; cycle < 10000; cycle++ {
		for k := 0; k < 4; k++ {
			f := universe[rng.Intn(facts)]
			if !x.Remove(f) {
				x.Add(f)
			}
		}
		x.Freeze()
	}
	if tab.rows == tab.dead {
		t.Fatal("the churn left no C fact")
	}
	keys := 2 * facts // distinct (position, value) pairs
	lists, slots := 0, 0
	for p := range tab.pos {
		if !tab.pos[p].built {
			t.Fatalf("position %d lost its lists in the churn", p)
		}
		lists, slots = lists+len(tab.pos[p].lists), slots+slotsOf(tab.pos[p].byVal)
	}
	if lists > keys {
		t.Errorf("%d posting-list slots after the churn, want at most the %d keys there are", lists, keys)
	}
	if slots > 4*keys {
		t.Errorf("byVal holds %d slots after the churn, want at most %d", slots, 4*keys)
	}
	if got := slotsOf(tab.byKey); got > 4*facts {
		t.Errorf("byKey holds %d slots after the churn, want at most %d", got, 4*facts)
	}
	if tab.rows > 2*facts+compactFloor {
		t.Errorf("C holds %d rows after the churn, want at most %d", tab.rows, 2*facts+compactFloor)
	}
}

// builtPositions returns the positions of tab that have posting lists.
func builtPositions(tab *relTable) []int {
	var ps []int
	for p := range tab.pos {
		if tab.pos[p].built {
			ps = append(ps, p)
		}
	}
	return ps
}

// TestBatchStoresOnlyWhatItReads (Type 1): a batch fixpoint neither
// freezes nor removes, and the one position its rounds probe is E's
// second (the pinned T binds z in E(x,z)), so after TC over a chain no
// table has stamps, T has no posting list and E has lists at position
// 1 alone. One Freeze stamps every table and builds no list, and the
// churn bound then holds on the same index.
func TestBatchStoresOnlyWhatItReads(t *testing.T) {
	prog := MustParseProgram(`
		T(x,y) :- E(x,y).
		T(x,y) :- E(x,z), T(z,y).`)
	x := IndexInstance(generate.Path("v", 64))
	if err := evalStratum(prog.Rules, x, FixpointOptions{}, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	e, tc := x.idx.table(fact.InternString("E"), 2), x.idx.table(fact.InternString("T"), 2)
	if tc == nil || tc.rows != 65*64/2 {
		t.Fatal("TC over a 64-edge chain left no T or not all of it")
	}
	check := func(when string) {
		if got := builtPositions(e); !slices.Equal(got, []int{1}) {
			t.Errorf("%s: E has lists at positions %v, want [1]", when, got)
		}
		if got := builtPositions(tc); len(got) != 0 {
			t.Errorf("%s: T has lists at positions %v, want none", when, got)
		}
	}
	check("after the fixpoint")
	for _, tab := range x.idx.tabs {
		if tab.stamps != nil {
			t.Errorf("table %s has %d stamps after a batch fixpoint, want none", fact.Symbol(tab.rel), len(tab.stamps))
		}
	}
	x.Freeze()
	check("after a Freeze")
	for _, tab := range x.idx.tabs {
		if len(tab.stamps) != tab.rows || tab.stamps == nil {
			t.Errorf("table %s has %d stamps for %d rows after a Freeze", fact.Symbol(tab.rel), len(tab.stamps), tab.rows)
		}
	}
	churnIsBounded(t, x)
	if x.Len() < tc.rows+e.rows {
		t.Errorf("the churn lost facts of E or T: Len %d", x.Len())
	}
}

// TestLazyListsMatchEager (Type 1, exact) feeds one seeded
// Add/RemoveAll/Freeze stream, long enough to compact, to two indexes:
// an eager one, whose tables had every position probed when they were
// made empty, so add kept every list from the first row on, and a lazy
// one, each of whose positions is first probed at a random point of the
// stream. From that point on, at random points, one random (position,
// value) is probed on both: the lists must be equal id for id, and,
// read through sees, hold exactly the rows a scan of the table finds
// at the live version and at the last view's. Across the seeds some
// position must be first probed after its table compacted, and some
// while rows killed since the last freeze await the next.
func TestLazyListsMatchEager(t *testing.T) {
	vals := []fact.Value{"v0", "v1", "v2", "v3", "v4"}
	var universe []fact.Fact
	for _, a := range vals {
		for _, b := range vals {
			universe = append(universe, fact.New("E", a, b))
			for _, c := range vals {
				universe = append(universe, fact.New("R", a, b, c))
			}
		}
	}
	e, r := fact.InternString("E"), fact.InternString("R")
	type position struct {
		rel        fact.ID
		arity, pos int
	}
	positions := []position{{e, 2, 0}, {e, 2, 1}, {r, 3, 0}, {r, 3, 1}, {r, 3, 2}}
	afterCompaction, whileKilled := 0, 0
	const ops = 600
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, eager := IndexInstance(fact.NewInstance()), IndexInstance(fact.NewInstance())
		first := make([]int, len(positions)) // the op after which position i is first probed
		for i, ps := range positions {
			lazy.idx.tableFor(ps.rel, ps.arity)
			eager.idx.tableFor(ps.rel, ps.arity).list(ps.pos, fact.NoID)
			first[i] = rng.Intn(ops)
		}
		compacted := map[fact.ID]bool{}
		var view *IndexedInstance
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(20); {
			case k == 0:
				held := map[*relTable]int{}
				for _, tab := range lazy.idx.tabs {
					held[tab] = tab.rows
				}
				view = lazy.Freeze()
				eager.Freeze()
				for tab, n := range held {
					if tab.rows < n {
						compacted[tab.rel] = true
					}
				}
			case k < 9:
				batch := make([]fact.Fact, 1+rng.Intn(12))
				for i := range batch {
					batch[i] = universe[rng.Intn(len(universe))]
				}
				if n, m := lazy.RemoveAll(batch), eager.RemoveAll(batch); n != m {
					t.Fatalf("seed %d: RemoveAll removed %d and %d", seed, n, m)
				}
			default:
				f := universe[rng.Intn(len(universe))]
				if lazy.Add(f) != eager.Add(f) {
					t.Fatalf("seed %d: Add(%v) answers differently", seed, f)
				}
			}
			for i, ps := range positions {
				if op < first[i] || op > first[i] && rng.Intn(4) != 0 {
					continue
				}
				lt, et := lazy.idx.table(ps.rel, ps.arity), eager.idx.table(ps.rel, ps.arity)
				if op == first[i] {
					if lt.pos[ps.pos].built {
						t.Fatalf("seed %d: position %d of %s has lists before its first probe", seed, ps.pos, fact.Symbol(ps.rel))
					}
					if compacted[ps.rel] {
						afterCompaction++
					}
					if slices.ContainsFunc(lt.killed, func(id int32) bool { return lt.stamps[id].died != alive }) {
						whileKilled++
					}
				}
				v := fact.InternString(string(vals[rng.Intn(len(vals))]))
				got, gok := lt.list(ps.pos, v)
				want, wok := et.list(ps.pos, v)
				if gok != wok || !slices.Equal(got, want) {
					t.Fatalf("seed %d, op %d: %s position %d value %s: lazy list %v, %v; eager %v, %v",
						seed, op, fact.Symbol(ps.rel), ps.pos, fact.Symbol(v), got, gok, want, wok)
				}
				ats := []uint64{latest}
				if view != nil {
					ats = append(ats, view.version())
				}
				for _, at := range ats {
					var seen, scan []int32
					for _, id := range got {
						if lt.sees(id, at) {
							seen = append(seen, id)
						}
					}
					for id := range lt.rows {
						if (lt.stamps == nil || lt.stamps[id].visible(at)) && lt.row(id)[ps.pos] == v {
							scan = append(scan, int32(id))
						}
					}
					if !slices.Equal(seen, scan) {
						t.Fatalf("seed %d, op %d, version %d: %s position %d value %s: the list shows %v, a scan finds %v",
							seed, op, at, fact.Symbol(ps.rel), ps.pos, fact.Symbol(v), seen, scan)
					}
				}
			}
		}
	}
	if afterCompaction == 0 || whileKilled == 0 {
		t.Fatalf("%d positions first probed after a compaction and %d while killed rows awaited a freeze; the generator drifted", afterCompaction, whileKilled)
	}
	t.Logf("first probes after a compaction: %d, with killed rows pending: %d", afterCompaction, whileKilled)
}
