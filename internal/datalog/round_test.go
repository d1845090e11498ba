package datalog

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/obs"
)

// roundCase is one program the round invariants are pinned on: its
// strata, the head hooks of its invention rules (nil for none) and its
// input.
type roundCase struct {
	name   string
	strata [][]Rule
	hooks  map[string]HeadHook
	in     *fact.Instance
}

// roundCases covers linear and nonlinear TC, an arity-0 and an arity-3
// head, and a value-inventing rule. Nullary atoms do not parse, so the
// arity-0 head and the body atom that reads it are built by hand.
func roundCases() []roundCase {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	graph := generate.RandomGraph(rng(7), "v", 40, 300)
	chain := generate.Path("c", 40)
	both := graph.Clone()
	for _, f := range chain.Facts() {
		both.Add(f)
	}
	rules := func(src string) []Rule { return MustParseProgram(src).Rules }
	wide := rules(`
		P(x,y,z) :- E(x,y), E(y,z).
		Q(x,w,z) :- P(x,y,z), E(z,w).`)
	wide = append(wide,
		Rule{Head: Atom{Rel: "Z"}, Pos: []Atom{AtomV("P", "x", "y", "z")}},
		Rule{Head: AtomV("Y", "x"), Pos: []Atom{{Rel: "Z"}, AtomV("E", "x", "y")}})
	// The invention head N(x,y) is N(*,x,y) once its hook is given, so
	// the rules that read it parse apart from it.
	skolem := func(head []fact.ID) {
		var sb strings.Builder
		sb.WriteString("n")
		for _, id := range head[1:] {
			sb.WriteString("_" + string(fact.Symbol(id)))
		}
		head[0] = fact.Intern(fact.Value(sb.String()))
	}
	return []roundCase{
		{"tc/linear", [][]Rule{rules(tcProgram)}, nil, both},
		{"tc/nonlinear", [][]Rule{rules(`
			T(x,y) :- E(x,y).
			T(x,y) :- T(x,z), T(z,y).`)}, nil, both},
		{"heads/arity-0-and-3", [][]Rule{wide}, nil, generate.RandomGraph(rng(3), "w", 24, 90)},
		{"ilog/invention", [][]Rule{append(rules(`N(x,y) :- E(x,y).`), rules(`
			R(n,y) :- N(n,x,y).
			R(n,z) :- R(n,y), E(y,z).`)...)}, map[string]HeadHook{"N": skolem}, generate.RandomGraph(rng(5), "u", 30, 90)},
	}
}

// roundTrace evaluates the case in one mode and returns, one line a
// round, the round's candidates, derivations, duplicates and appended
// rows; for a case with hooks, the wILOG¬ round lines (appended and
// invented rows) after them; and, one line a relation, its row count
// and a digest of its rows in row order. It also checks that every
// table's key index maps each row's tuple to that row, read back from
// the row store, and reports how many tasks ran fanned out.
func roundTrace(t *testing.T, c roundCase, mode EvalMode) (string, int64) {
	t.Helper()
	var sb strings.Builder
	reg := obs.NewRegistry()
	opts := FixpointOptions{Mode: mode, Reg: reg, Tracer: obs.NewStream(&sb)}
	// The dl.round lines, which carry candidates and duplicates, for
	// every case: the stratum loop driven with dl.* events even where
	// EvalStrata would emit ilog.* ones.
	eo := newEngineObs(opts, false)
	x := IndexInstance(c.in)
	for i, stratum := range c.strata {
		eo.beginStratum(i+1, stratum)
		if err := evalStratum(stratum, x, opts, eo, c.hooks, 0); err != nil {
			t.Fatalf("%s %s: %v", c.name, mode, err)
		}
		eo.endStratum(x)
	}
	for _, tab := range x.idx.tabs {
		if tab.rows != tab.reserved {
			t.Errorf("%s %s: %s/%d has %d rows reserved past its %d committed ones", c.name, mode, fact.Symbol(tab.rel), tab.arity, tab.reserved-tab.rows, tab.rows)
		}
		for id := range tab.rows {
			if got, ok := tab.byKey.Get(tab.row(id), tab.args); !ok || int(got) != id {
				t.Fatalf("%s %s: %s/%d row %d is keyed to row %d (%v)", c.name, mode, fact.Symbol(tab.rel), tab.arity, id, got, ok)
			}
		}
	}
	if c.hooks != nil {
		if _, err := EvalStrata(c.strata, c.hooks, 0, c.in, FixpointOptions{Mode: mode, Tracer: obs.NewStream(&sb)}); err != nil {
			t.Fatalf("%s %s: %v", c.name, mode, err)
		}
	}
	out := x.handOver()
	type relKey struct {
		name  string
		arity int
	}
	var rels []relKey
	for _, f := range out.Facts() {
		if k := (relKey{f.Rel(), f.Arity()}); !slices.Contains(rels, k) {
			rels = append(rels, k)
		}
	}
	slices.SortFunc(rels, func(a, b relKey) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
	for _, k := range rels {
		rel := fact.InternString(k.name)
		rows, n, h := out.Rows(rel, k.arity), out.Count(rel, k.arity), fnv.New64a()
		for i := range n {
			fmt.Fprintln(h, fact.FromIDs(rel, rows[i*k.arity:(i+1)*k.arity]))
		}
		fmt.Fprintf(&sb, "rows %s/%d %d %x\n", k.name, k.arity, n, h.Sum64())
	}
	return sb.String(), fannedOut(reg.Snapshot())
}

// TestRoundInvariants pins what a fixpoint round does, round by round,
// in every mode at GOMAXPROCS 1 and 4: the candidates its joins scan,
// the heads they derive (new to the rows committed before the round)
// and find duplicate, the rows it appends, the rows value invention
// appends, and at the end each relation's rows in row order. Joins read
// only rows committed by an earlier round, so a round that let its own
// rows be seen would scan and derive more, and a head table keyed
// wrongly would fail the key check.
func TestRoundInvariants(t *testing.T) {
	var got strings.Builder
	fanned := false
	for _, width := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
			for _, c := range roundCases() {
				for _, mode := range []EvalMode{Naive, SemiNaive, Parallel} {
					trace, n := roundTrace(t, c, mode)
					fanned = fanned || n > 0
					fmt.Fprintf(&got, "# %s %s width %d\n%s", c.name, mode, width, trace)
				}
			}
		}()
	}
	if !fanned {
		t.Error("no round fanned out: the cases no longer cover the barrier's reserve")
	}
	goldenCompare(t, "rounds.golden", got.String())
}
