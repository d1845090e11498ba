package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fact"
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
			h, err := v.Head()
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
			if ok, _ := x.Derivable(c, h); !ok || err != nil {
				return fmt.Errorf("%v: Derivable(%v) = false, CountDerivations = %d, %v", c.cr.src, h, n, err)
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
// view equal the reference. Every stream crosses at least one
// compaction. Run under -race: the view is enumerated by several
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
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, ref := IndexInstance(fact.NewInstance()), fact.NewInstance()
		var view *IndexedInstance
		var frozen reads
		compactions, readded := 0, 0
		sinceFreeze := map[string]bool{} // removed since the last freeze
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
				f := universe[rng.Intn(len(universe))]
				added := ref.Add(f)
				if x.Add(f) != added {
					t.Fatalf("seed %d: Add(%v) = %v, the reference says %v", seed, f, !added, added)
				}
				if added && sinceFreeze[f.Key()] {
					readded++
				}
			}
			if x.Len() != ref.Len() {
				t.Fatalf("seed %d, op %d: Len = %d, want %d", seed, op, x.Len(), ref.Len())
			}
		}
		if compactions == 0 || readded == 0 {
			t.Fatalf("seed %d: the stream crossed %d compactions and %d re-adds inside one version; the generator drifted", seed, compactions, readded)
		}
	}
}

// slotsOf returns the slot count of an open-addressed fact.TupleIndex
// (arity <= 2), read through reflection: the table is fact's own.
func slotsOf(x fact.TupleIndex) int {
	return reflect.ValueOf(x).FieldByName("t").Elem().FieldByName("slots").Len()
}

// TestChurnIsBounded (Type 1) runs 10⁴ cycles of Add, Remove and
// Freeze over the same 100 facts, each of whose values is its own, so
// every removal empties two posting lists and every re-add needs them
// again. Afterwards the posting-list slots, the slot tables of byArg and
// byKey and Rows() stay within a constant factor of the 100 facts: a
// list freeze empties gives its slot back, and a new key takes it.
func TestChurnIsBounded(t *testing.T) {
	const facts = 100
	universe := make([]fact.Fact, facts)
	for i := range universe {
		universe[i] = fact.New("E", fact.Value(fmt.Sprint("a", i)), fact.Value(fmt.Sprint("b", i)))
	}
	rng := rand.New(rand.NewSource(1))
	x := IndexInstance(fact.NewInstance())
	for cycle := 0; cycle < 10000; cycle++ {
		for k := 0; k < 4; k++ {
			f := universe[rng.Intn(facts)]
			if !x.Remove(f) {
				x.Add(f)
			}
		}
		x.Freeze()
	}
	tab := x.idx.table(fact.InternString("E"), 2)
	if tab == nil || x.Len() == 0 {
		t.Fatalf("the churn left no E table or no fact (Len %d)", x.Len())
	}
	keys := 2 * facts // distinct (position, value) pairs
	if got := len(tab.lists); got > keys {
		t.Errorf("%d posting-list slots after the churn, want at most the %d keys there are", got, keys)
	}
	if got := slotsOf(tab.byArg); got > 4*keys {
		t.Errorf("byArg holds %d slots after the churn, want at most %d", got, 4*keys)
	}
	if got := slotsOf(tab.byKey); got > 4*facts {
		t.Errorf("byKey holds %d slots after the churn, want at most %d", got, 4*facts)
	}
	if got := x.Rows(); got > 2*facts+compactFloor {
		t.Errorf("Rows = %d after the churn, want at most %d", got, 2*facts+compactFloor)
	}
}
