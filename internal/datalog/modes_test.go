package datalog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/obs"
)

// Differential tests across the three evaluation modes: Naive is the
// oracle; SemiNaive and Parallel must agree with it exactly, on
// hand-picked programs and on randomly generated safe programs. A
// Parallel round is GOMAXPROCS wide and fans out from inlineBelow
// pinned facts up, so tests that mean the fan-out pin the width with
// runtime.GOMAXPROCS and bring an input whose rounds are wide enough.

func evalAllModes(t *testing.T, p *Program, in *fact.Instance, maxRounds int) map[string]*fact.Instance {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	out := make(map[string]*fact.Instance)
	for _, opts := range []FixpointOptions{
		{Mode: Naive, MaxRounds: maxRounds},
		{Mode: SemiNaive, MaxRounds: maxRounds},
		{Mode: Parallel, MaxRounds: maxRounds},
	} {
		res, err := p.EvalStratified(in, opts)
		if err != nil {
			t.Fatalf("%s: %v\nprogram:\n%s\ninput: %v", opts.Mode, err, p, in)
		}
		out[opts.Mode.String()] = res
	}
	return out
}

// TestCrossModeRandomPrograms is the cross-mode property test: on
// randomly generated safe programs (internal/generate) and random
// inputs, Naive ≡ SemiNaive ≡ Parallel.
func TestCrossModeRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		src := generate.RandomProgram(rng, 1+rng.Intn(4))
		p, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		if !p.IsStratifiable() {
			continue
		}
		in := generate.RandomGraph(rng, "v", 1+rng.Intn(5), rng.Intn(8))
		for k := 0; k < rng.Intn(3); k++ {
			in.Add(fact.New("A", fact.Value(fmt.Sprintf("v%d", rng.Intn(5)))))
		}
		res := evalAllModes(t, p, in, 0)
		if !res["naive"].Equal(res["seminaive"]) || !res["naive"].Equal(res["parallel"]) {
			t.Fatalf("modes disagree on program:\n%s\ninput: %v\nnaive     = %v\nseminaive = %v\nparallel  = %v",
				p, in, res["naive"], res["seminaive"], res["parallel"])
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d stratifiable programs checked; generator drifted", checked)
	}
}

// fannedOut reports how many tasks the snapshot saw run on a fanned-out
// round's goroutines (inline rounds are attributed to no worker).
func fannedOut(snap obs.Snapshot) int64 {
	var n int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, obs.DlWorkerTasksPrefix) {
			n += v
		}
	}
	return n
}

// TestParallelMatchesSemiNaiveWorkloads pins the agreement on the
// benchmark shapes at several widths: chain and cycle stay under the
// inline threshold, the random graph's rounds fan out.
func TestParallelMatchesSemiNaiveWorkloads(t *testing.T) {
	tc := MustParseProgram(tcProgram)
	inputs := map[string]*fact.Instance{
		"chain":  generate.Path("v", 24),
		"cycle":  generate.Cycle("v", 16),
		"random": generate.RandomGraph(rand.New(rand.NewSource(3)), "v", 40, 300),
		"empty":  fact.NewInstance(),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, in := range inputs {
		want, err := tc.Fixpoint(in, FixpointOptions{Mode: SemiNaive})
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(width)
			reg := obs.NewRegistry()
			got, err := tc.Fixpoint(in, FixpointOptions{Mode: Parallel, Reg: reg})
			if err != nil {
				t.Fatalf("%s width=%d: %v", name, width, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s width=%d: parallel=%v want %v", name, width, got, want)
			}
			if n, wide := fannedOut(reg.Snapshot()), name == "random" && width > 1; (n > 0) != wide {
				t.Errorf("%s width=%d: %d tasks ran fanned out, want some: %v", name, width, n, wide)
			}
		}
	}
}

// TestParallelFanOutFirstProbes: the opening round of a three-atom
// rule over a wide input fans out, and its workers are the first to
// probe E at position 0 and F at position 0, several at once; the lists
// they build must be the ones SemiNaive's inline round builds, so the
// results agree. Run under -race: the build is the one write a round's
// readers make.
func TestParallelFanOutFirstProbes(t *testing.T) {
	p := MustParseProgram(`P(x,w) :- E(x,y), E(y,z), F(z,w).`)
	in := generate.RandomGraph(rand.New(rand.NewSource(13)), "v", 80, 400)
	for _, f := range in.Rel("E") {
		in.Add(fact.New("F", f.Args()...))
	}
	want, err := p.Fixpoint(in, FixpointOptions{Mode: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for run := 0; run < 4; run++ {
		x := IndexInstance(in)
		for _, tab := range x.idx.tabs {
			if ps := builtPositions(tab); len(ps) != 0 {
				t.Fatalf("%s has lists at %v before any probe", fact.Symbol(tab.rel), ps)
			}
		}
		reg := obs.NewRegistry()
		eo := newEngineObs(FixpointOptions{Mode: Parallel, Reg: reg}, false)
		if err := evalStratum(p.Rules, x, FixpointOptions{Mode: Parallel}, eo, nil, 0); err != nil {
			t.Fatal(err)
		}
		if n := fannedOut(reg.Snapshot()); n == 0 {
			t.Fatal("the opening round ran inline; the input is too narrow to fan out")
		}
		for rel, ps := range map[string][]int{"E": {0}, "F": {0}} {
			if got := builtPositions(x.idx.table(fact.InternString(rel), 2)); !slices.Equal(got, ps) {
				t.Errorf("%s has lists at %v after the round, want %v", rel, got, ps)
			}
		}
		if got := x.handOver(); !got.Equal(want) {
			t.Fatalf("run %d: Parallel derived %d facts, SemiNaive %d", run, got.Len(), want.Len())
		}
	}
}

// TestParallelRowOrderDeterministic: no sort fixes the order of a
// round's rows — the barrier appends the tasks' buffers in task order —
// so Parallel's tables must come out in one row order however its
// fanned-out tasks were scheduled, and every round must append the rows
// SemiNaive's round appends, as a set.
func TestParallelRowOrderDeterministic(t *testing.T) {
	p := MustParseProgram(complementTC)
	in := generate.RandomGraph(rand.New(rand.NewSource(7)), "v", 40, 300)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rowSeqs := func(out *fact.Instance) map[string][]fact.ID {
		seqs := make(map[string][]fact.ID)
		for _, f := range out.Facts() {
			if _, ok := seqs[f.Rel()]; !ok {
				seqs[f.Rel()] = slices.Clone(out.Rows(f.RelID(), f.Arity()))
			}
		}
		return seqs
	}
	first, err := p.EvalStratified(in, FixpointOptions{Mode: Parallel})
	if err != nil {
		t.Fatal(err)
	}
	want := rowSeqs(first)
	for run := 2; run <= 5; run++ {
		out, err := p.EvalStratified(in, FixpointOptions{Mode: Parallel})
		if err != nil {
			t.Fatal(err)
		}
		for rel, seq := range rowSeqs(out) {
			if !slices.Equal(seq, want[rel]) {
				t.Fatalf("run %d: the rows of %s come out in another order", run, rel)
			}
		}
	}

	// Round by round, through the loop evalStratum runs: the rows each
	// barrier appends, rendered and sorted.
	rho, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	perRound := func(mode EvalMode) ([][]string, *IndexedInstance) {
		x := IndexInstance(in)
		var appended [][]string
		for _, rules := range p.Strata(rho) {
			crs := compileRules(rules)
			l := &stratumLoop{x: x, workers: mode.width(), mode: mode}
			build := func(w int) []ruleTask { return fullPassTasks(crs, x, w) }
			for {
				if err := l.runRound(build); err != nil {
					t.Fatal(err)
				}
				if len(l.delta) == 0 {
					break
				}
				var rows []string
				for _, s := range l.delta {
					for id := s.lo; id < s.hi; id++ {
						rows = append(rows, fact.FromIDs(s.t.rel, s.t.row(id)).String())
					}
				}
				slices.Sort(rows)
				appended = append(appended, rows)
				build = func(w int) []ruleTask { return deltaTasks(crs, l.delta, w) }
			}
		}
		return appended, x
	}
	semi, _ := perRound(SemiNaive)
	par, x := perRound(Parallel)
	if len(semi) != len(par) {
		t.Fatalf("SemiNaive appends in %d rounds, Parallel in %d", len(semi), len(par))
	}
	for k := range semi {
		if !slices.Equal(semi[k], par[k]) {
			t.Errorf("round %d: SemiNaive appends %d rows, Parallel %d, or other ones", k, len(semi[k]), len(par[k]))
		}
	}
	for rel, seq := range rowSeqs(x.handOver()) {
		if !slices.Equal(seq, want[rel]) {
			t.Errorf("the loop driven round by round leaves %s in another row order than EvalStratified", rel)
		}
	}
}

// TestParallelStratifiedNegation exercises the parallel engine across
// stratum boundaries (negation over a lower stratum).
func TestParallelStratifiedNegation(t *testing.T) {
	p := MustParseProgram(`
		T(x,y) :- E(x,y).
		T(x,z) :- T(x,y), E(y,z).
		Adom(x) :- E(x,y).
		Adom(y) :- E(x,y).
		O(x,y) :- Adom(x), Adom(y), !T(x,y).
	`)
	in := generate.Path("v", 8)
	res := evalAllModes(t, p, in, 0)
	if !res["naive"].Equal(res["parallel"]) || !res["naive"].Equal(res["seminaive"]) {
		t.Fatalf("stratified negation disagreement:\nnaive    = %v\nparallel = %v", res["naive"], res["parallel"])
	}
}

// TestMaxRoundsBoundary: MaxRounds bounds *productive* TP rounds, and
// all three modes must enforce the bound identically. TC of a chain
// with n edges needs exactly n productive rounds (round k derives the
// paths of length k).
func TestMaxRoundsBoundary(t *testing.T) {
	p := MustParseProgram(tcProgram)
	const edges = 4 // needs exactly 4 productive rounds
	in := generate.Path("v", edges)
	for _, opts := range []FixpointOptions{
		{Mode: Naive},
		{Mode: SemiNaive},
		{Mode: Parallel},
	} {
		exact := opts
		exact.MaxRounds = edges
		if _, err := p.Fixpoint(in, exact); err != nil {
			t.Errorf("%s: MaxRounds=%d should accept a %d-round fixpoint: %v", opts.Mode, edges, edges, err)
		}
		tooFew := opts
		tooFew.MaxRounds = edges - 1
		if _, err := p.Fixpoint(in, tooFew); err == nil {
			t.Errorf("%s: MaxRounds=%d should reject a %d-round fixpoint", opts.Mode, edges-1, edges)
		}
	}
}

// A program that derives nothing converges in zero productive rounds
// and must pass under any positive bound — and even MaxRounds=1.
func TestMaxRoundsUnproductiveProgram(t *testing.T) {
	p := MustParseProgram(`O(x) :- E(x,x).`)
	in := fact.MustParseInstance(`E(a,b) E(b,c)`) // no self-loop: nothing derived
	for _, mode := range []EvalMode{Naive, SemiNaive, Parallel} {
		if _, err := p.Fixpoint(in, FixpointOptions{Mode: mode, MaxRounds: 1}); err != nil {
			t.Errorf("%s: unproductive program rejected at MaxRounds=1: %v", mode, err)
		}
	}
}

// A single-productive-round program must pass at MaxRounds=1 in every
// mode — this is the boundary the old loops disagreed on (the
// confirming pass counted against the bound).
func TestMaxRoundsSingleRound(t *testing.T) {
	p := MustParseProgram(`O(x,y) :- E(x,y).`)
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	for _, mode := range []EvalMode{Naive, SemiNaive, Parallel} {
		out, err := p.Fixpoint(in, FixpointOptions{Mode: mode, MaxRounds: 1})
		if err != nil {
			t.Errorf("%s: single-round program rejected at MaxRounds=1: %v", mode, err)
			continue
		}
		if !out.Has(fact.MustParseFact("O(a,b)")) {
			t.Errorf("%s: output missing: %v", mode, out)
		}
	}
}

func TestEvalModeStringParse(t *testing.T) {
	for _, m := range []EvalMode{SemiNaive, Naive, Parallel} {
		got, err := ParseEvalMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseEvalMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseEvalMode("bogus"); err == nil {
		t.Error("ParseEvalMode accepted bogus mode")
	}
}

// --- candidate selection, observed through the matcher (multi-bound atoms) ---

func mustRule(t *testing.T, src string) Rule {
	t.Helper()
	r, err := ParseRule(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// scanned runs the matcher the way Valuations does — the rule's head
// unified with head when one is given — and returns how many candidate
// facts it iterated and how many valuations it found. For a one-atom
// body the first number is the length of the posting list the matcher
// chose.
func scanned(t *testing.T, x *IndexedInstance, src string, head *fact.Fact) (candidates int64, found int) {
	t.Helper()
	cr := compileRule(mustRule(t, src))
	var init []fact.ID
	if head != nil {
		var ok bool
		if init, ok = cr.unifyHead(*head); !ok {
			t.Fatalf("head of %s does not unify with %v", src, *head)
		}
	}
	if err := cr.match(x, init, -1, cands{}, &candidates, func([]fact.ID) error {
		found++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return candidates, found
}

func TestCandidatesPicksNarrowestBoundPosition(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(a,c) E(a,d) E(b,d)`))
	for _, tc := range []struct {
		name, rule string
		head       *fact.Fact
		want       int64
	}{
		{"nothing bound: the full relation", `O(x,y) :- E(x,y).`, nil, 4},
		{"x=a narrows to 3", `O(x) :- E(x,y).`, factPtr("O", "a"), 3},
		{"both bound: y=d has 2 < x=a's 3", `O(x,y) :- E(x,y).`, factPtr("O", "a", "d"), 2},
		{"slot order must not matter: x=b has 1 < y=d's 2", `O(y,x) :- E(x,y).`, factPtr("O", "d", "b"), 1},
	} {
		if got, _ := scanned(t, x, tc.rule, tc.head); got != tc.want {
			t.Errorf("%s: matcher scanned %d candidates, want %d", tc.name, got, tc.want)
		}
	}
}

func factPtr(rel string, args ...fact.Value) *fact.Fact {
	f := fact.New(rel, args...)
	return &f
}

func TestCandidatesEmptyProbeShortCircuits(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(a,c)`))
	// A bound value absent from a position proves no fact can match,
	// even if another position has many candidates.
	for _, head := range []*fact.Fact{factPtr("O", "zzz", "b"), factPtr("O", "a", "zzz")} {
		if got, found := scanned(t, x, `O(x,y) :- E(x,y).`, head); got != 0 || found != 0 {
			t.Errorf("head %v: scanned %d candidates, found %d valuations; want 0, 0", *head, got, found)
		}
	}
}

func TestCandidatesConstantArgs(t *testing.T) {
	x := IndexInstance(fact.MustParseInstance(`E(a,b) E(b,b) E(c,a)`))
	if got, found := scanned(t, x, `O(x) :- E(x,"b").`, nil); got != 2 || found != 2 {
		t.Errorf("constant arg: scanned %d, found %d; want 2, 2", got, found)
	}
	if got, found := scanned(t, x, `O(x) :- E(x,"nope").`, nil); got != 0 || found != 0 {
		t.Errorf("absent constant: scanned %d, found %d; want 0, 0", got, found)
	}
}

// The narrowest-index selection must never lose answers: a rule with a
// multi-bound atom (both variables bound by an earlier atom) derives
// exactly what naive enumeration derives. Guards against candidate
// short-circuiting dropping facts.
func TestMultiBoundAtomJoinComplete(t *testing.T) {
	p := MustParseProgram(`O(x,y) :- E(x,y), F(x,y).`)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		in := fact.NewInstance()
		for k := 0; k < 10; k++ {
			a := fact.Value(fmt.Sprintf("v%d", rng.Intn(4)))
			b := fact.Value(fmt.Sprintf("v%d", rng.Intn(4)))
			if rng.Intn(2) == 0 {
				in.Add(fact.New("E", a, b))
			} else {
				in.Add(fact.New("F", a, b))
			}
		}
		res := evalAllModes(t, p, in, 0)
		if !res["naive"].Equal(res["seminaive"]) || !res["naive"].Equal(res["parallel"]) {
			t.Fatalf("multi-bound join disagreement on %v", in)
		}
	}
}

// --- IndexedInstance ---

func TestIndexedInstanceIncrementalAdd(t *testing.T) {
	in := fact.MustParseInstance(`E(a,b)`)
	x := IndexInstance(in)
	if !x.Add(fact.MustParseFact("E(b,c)")) {
		t.Fatal("Add of new fact returned false")
	}
	if x.Add(fact.MustParseFact("E(b,c)")) {
		t.Fatal("duplicate Add returned true")
	}
	// The incrementally extended index must agree with a fresh one.
	fresh := IndexInstance(x.Instance().Clone())
	for _, probe := range []struct {
		rule string
		head *fact.Fact
	}{
		{`O(x,y) :- E(x,y).`, nil},
		{`O(x) :- E(x,y).`, factPtr("O", "b")},
		{`O(y) :- E(x,y).`, factPtr("O", "c")},
	} {
		gotC, gotN := scanned(t, x, probe.rule, probe.head)
		wantC, wantN := scanned(t, fresh, probe.rule, probe.head)
		if gotC != wantC || gotN != wantN {
			t.Errorf("incremental index diverged from fresh index on %s: scanned %d/found %d, fresh %d/%d", probe.rule, gotC, gotN, wantC, wantN)
		}
	}
}

// Partitioning an enumeration by pinning the first positive atom to
// chunks of its table's rows — how a fanned-out full pass splits work —
// finds exactly the unpinned valuations.
func TestPinnedChunksMatchUnpinned(t *testing.T) {
	c := Compile(mustRule(t, `P(x,z) :- E(x,y), E(y,z), !E(z,x).`))
	in := generate.RandomGraph(rand.New(rand.NewSource(5)), "v", 8, 30)
	x := IndexInstance(in)
	var plain int64
	if err := x.Valuations(c, -1, nil, nil, func(*Valuation) error { plain++; return nil }); err != nil {
		t.Fatal(err)
	}
	chunks := fullPassTasks([]cRule{c.cr}, x, 4)
	perChunk := make([]int64, len(chunks))
	if err := parallelEach(4, len(chunks), func(_, i int) error {
		return c.cr.match(x, nil, chunks[i].pin, chunks[i].pinned, nil, func([]fact.ID) error { perChunk[i]++; return nil })
	}); err != nil {
		t.Fatal(err)
	}
	var chunked int64
	for _, n := range perChunk {
		chunked += n
	}
	if plain == 0 || plain != chunked || len(chunks) < 2 {
		t.Fatalf("valuation counts diverge: unpinned=%d, over %d chunks=%d", plain, len(chunks), chunked)
	}
}

// parallelEach visits every index exactly once, hands each goroutine
// its own w, stays on the caller's goroutine when there is nothing to
// fan out, and reports an error without losing the other indexes' work.
func TestParallelEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		const n = 50
		visits := make([]int, n)
		perW := make([]int, 8)
		if err := parallelEach(workers, n, func(w, i int) error {
			visits[i]++
			perW[w]++ // racy unless w is private to the goroutine
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		total := 0
		for w, k := range perW {
			if k > 0 && workers > 0 && w >= workers {
				t.Errorf("workers=%d: fn saw w=%d", workers, w)
			}
			total += k
		}
		for i, k := range visits {
			if k != 1 {
				t.Errorf("workers=%d: index %d visited %d times", workers, i, k)
			}
		}
		if total != n {
			t.Errorf("workers=%d: %d calls, want %d", workers, total, n)
		}
	}
	sentinel := fmt.Errorf("boom")
	for _, workers := range []int{1, 4} {
		err := parallelEach(workers, 20, func(_, i int) error {
			if i == 7 {
				return sentinel
			}
			return nil
		})
		if err != sentinel {
			t.Errorf("workers=%d: error = %v, want the sentinel", workers, err)
		}
	}
	if err := parallelEach(4, 0, func(_, _ int) error { return sentinel }); err != nil {
		t.Errorf("n=0 called fn: %v", err)
	}
}
