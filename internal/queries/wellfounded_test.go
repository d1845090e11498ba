package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
)

func TestWellFoundedWinMovePath(t *testing.T) {
	// Game a -> b -> c: c has no moves (lost), b wins (moves to lost c),
	// a loses (its only move reaches the winning b).
	in := fact.MustParseInstance(`Move(a,b) Move(b,c)`)
	won, lost, drawn, err := WinMoveClassified(in)
	if err != nil {
		t.Fatal(err)
	}
	if !won.Equal(fact.NewValueSet("b")) {
		t.Errorf("won = %v, want {b}", won.Sorted())
	}
	if !lost.Equal(fact.NewValueSet("a", "c")) {
		t.Errorf("lost = %v, want {a,c}", lost.Sorted())
	}
	if len(drawn) != 0 {
		t.Errorf("drawn = %v, want empty", drawn.Sorted())
	}
}

func TestWellFoundedWinMoveCycle(t *testing.T) {
	// A 2-cycle is a draw: neither position is won or lost.
	in := fact.MustParseInstance(`Move(a,b) Move(b,a)`)
	won, lost, drawn, err := WinMoveClassified(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(won) != 0 || len(lost) != 0 {
		t.Errorf("cycle should be all drawn: won=%v lost=%v", won.Sorted(), lost.Sorted())
	}
	if !drawn.Equal(fact.NewValueSet("a", "b")) {
		t.Errorf("drawn = %v", drawn.Sorted())
	}
}

func TestWellFoundedWinMoveCycleWithEscape(t *testing.T) {
	// a <-> b plus b -> c (c lost): b can escape to the lost c, so b
	// is won; a's only move is to the won b, so a is lost.
	in := fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c)`)
	won, lost, drawn, err := WinMoveClassified(in)
	if err != nil {
		t.Fatal(err)
	}
	if !won.Equal(fact.NewValueSet("b")) || !lost.Equal(fact.NewValueSet("a", "c")) || len(drawn) != 0 {
		t.Errorf("won=%v lost=%v drawn=%v", won.Sorted(), lost.Sorted(), drawn.Sorted())
	}
}

func TestWellFoundedStratifiedAgreement(t *testing.T) {
	// On stratifiable programs the well-founded model is total and
	// coincides with the stratified semantics.
	p := ComplementTCProgram()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		in := generate.RandomGraph(rng, "v", 4, 5)
		wfs, err := WellFounded(p, in)
		if err != nil {
			t.Fatal(err)
		}
		if !wfs.Undefined.Empty() {
			t.Fatalf("stratifiable program has undefined facts: %v", wfs.Undefined)
		}
		strat, err := p.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if !wfs.True.Equal(strat) {
			t.Fatalf("WFS and stratified semantics disagree on %v:\nwfs   = %v\nstrat = %v", in, wfs.True, strat)
		}
	}
}

// Paper headline: win-move is not monotone — in fact not even
// domain-distinct-monotone — but it is domain-disjoint-monotone.
func TestWinMoveMembership(t *testing.T) {
	q := WinMove()

	// Exact counterexample for Mdistinct (hence for M): I = {Move(y,x)}
	// gives Q(I) = {O(y)}; adding the domain-distinct J = {Move(x,c)}
	// flips x to won and y to lost.
	i := fact.MustParseInstance(`Move(y,x)`)
	j := fact.MustParseInstance(`Move(x,c)`)
	if !monotone.MDistinct.Allows(j, i.Known()) {
		t.Fatal("J should be domain distinct from I")
	}
	w, err := monotone.CheckPair(q, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Error("win-move should violate domain-distinct monotonicity")
	}

	// Randomized evidence for Mdisjoint membership.
	sampler := func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		return randomGame(rng, "v", 4, 5), randomGame(rng, "w", 4, 5)
	}
	w, err = monotone.FindViolation(q, monotone.MDisjoint, sampler, 51, 300)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("win-move should be domain-disjoint-monotone; witness %v", w)
	}
}

// Win-move distributes over components (the conclusion's connectedness
// argument): Q(I ∪ J) = Q(I) ∪ Q(J) for domain-disjoint I, J.
func TestWinMoveDistributesOverComponents(t *testing.T) {
	q := WinMove()
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		i := randomGame(rng, "v", 4, 4)
		j := randomGame(rng, "w", 4, 4)
		qi, err := q.Eval(i)
		if err != nil {
			t.Fatal(err)
		}
		qj, err := q.Eval(j)
		if err != nil {
			t.Fatal(err)
		}
		qu, err := q.Eval(i.Union(j))
		if err != nil {
			t.Fatal(err)
		}
		if !qu.Equal(qi.Union(qj)) {
			t.Fatalf("win-move did not distribute on %v ⊎ %v: got %v, want %v", i, j, qu, qi.Union(qj))
		}
	}
}

func TestWinMoveThreeValued(t *testing.T) {
	q := WinMoveThreeValued()
	out, err := q.Eval(fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c) Move(d,e)`))
	if err != nil {
		t.Fatal(err)
	}
	want := fact.MustParseInstance(`Won(b) Won(d) Lost(a) Lost(c) Lost(e)`)
	if !out.Equal(want) {
		t.Errorf("three-valued output = %v, want %v", out, want)
	}
	// A pure cycle is all drawn.
	out, err = q.Eval(fact.MustParseInstance(`Move(a,b) Move(b,a)`))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(fact.MustParseInstance(`Drawn(a) Drawn(b)`)) {
		t.Errorf("cycle three-valued output = %v", out)
	}
}

// The three-valued query is also in Mdisjoint \ Mdistinct: "Lost" and
// "Drawn" facts survive domain-disjoint additions, but a single
// domain-distinct move flips classifications.
func TestWinMoveThreeValuedMembership(t *testing.T) {
	q := WinMoveThreeValued()
	// ∉ Mdistinct: Lost(x) flips to Won(x) when x gains a move to a
	// fresh dead-end.
	i := fact.MustParseInstance(`Move(y,x)`)
	j := fact.MustParseInstance(`Move(x,c)`)
	w, err := monotone.CheckPair(q, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Error("three-valued win-move should violate Mdistinct")
	}
	// ∈ Mdisjoint by sampling.
	sampler := func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		return randomGame(rng, "v", 4, 5), randomGame(rng, "w", 4, 5)
	}
	w, err = monotone.FindViolation(q, monotone.MDisjoint, sampler, 89, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("three-valued win-move should be in Mdisjoint: %v", w)
	}
}

// Closed form on path games: in the chain p0 → p1 → ... → pn the
// dead end pn is lost, and a position is won exactly when its distance
// to the dead end is odd.
func TestWinMovePathClosedForm(t *testing.T) {
	for n := 1; n <= 7; n++ {
		game := fact.NewInstance()
		for k := 0; k < n; k++ {
			game.Add(fact.New("Move",
				fact.Value(fmt.Sprintf("p%d", k)),
				fact.Value(fmt.Sprintf("p%d", k+1))))
		}
		won, lost, drawn, err := WinMoveClassified(game)
		if err != nil {
			t.Fatal(err)
		}
		if len(drawn) != 0 {
			t.Fatalf("path game of length %d has drawn positions: %v", n, drawn.Sorted())
		}
		for k := 0; k <= n; k++ {
			v := fact.Value(fmt.Sprintf("p%d", k))
			dist := n - k
			if dist%2 == 1 {
				if !won.Has(v) {
					t.Errorf("length %d: %s at odd distance %d should be won", n, v, dist)
				}
			} else if !lost.Has(v) {
				t.Errorf("length %d: %s at even distance %d should be lost", n, v, dist)
			}
		}
	}
}

func TestWellFoundedAcceptsValidProgram(t *testing.T) {
	if _, err := WellFounded(WinMoveProgram(), fact.MustParseInstance(`Move(a,b)`)); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func randomGame(rng *rand.Rand, prefix string, n, m int) *fact.Instance {
	out := fact.NewInstance()
	for k := 0; k < m; k++ {
		a := fact.Value(fmt.Sprintf("%s%d", prefix, rng.Intn(n)))
		b := fact.Value(fmt.Sprintf("%s%d", prefix, rng.Intn(n)))
		if a != b {
			out.Add(fact.New("Move", a, b))
		}
	}
	return out
}
