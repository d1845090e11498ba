package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/monotone"
)

func TestDoubledProgramShape(t *testing.T) {
	p := WinMoveProgram()
	d, err := DoubledProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rules) != 2 {
		t.Fatalf("doubled win-move has %d rules, want 2:\n%s", len(d.Rules), d)
	}
	// The doubled program must be syntactically stratifiable even
	// though win-move itself is not.
	if !d.IsStratifiable() {
		t.Fatal("doubled program not stratifiable")
	}
	rho, _ := d.Stratify()
	if rho["Win__over"] >= rho["Win"] {
		t.Errorf("overestimate must sit strictly below the new underestimate: %v", rho)
	}
	// Connectivity is preserved — the paper's Lemma 5.2 hook.
	ok, err := doubledPreservesConnectivity(p)
	if err != nil || !ok {
		t.Errorf("connectivity not preserved: %v %v", ok, err)
	}
	if !d.IsConnectedProgram() {
		t.Error("doubled win-move should be in con-Datalog¬")
	}
}

func TestDoubledProgramRejectsCollisions(t *testing.T) {
	p := datalog.MustParseProgram(`Win__over(x) :- V(x).`)
	if _, err := DoubledProgram(p); err == nil {
		t.Error("namespace collision accepted")
	}
}

func TestWellFoundedViaDoubledAgreesWinMove(t *testing.T) {
	p := WinMoveProgram()
	games := []*fact.Instance{
		fact.NewInstance(),
		fact.MustParseInstance(`Move(a,b)`),
		fact.MustParseInstance(`Move(a,b) Move(b,c)`),
		fact.MustParseInstance(`Move(a,b) Move(b,a)`),
		fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c)`),
		fact.MustParseInstance(`Move(a,a)`),
	}
	for _, g := range games {
		direct, err := WellFounded(p, g)
		if err != nil {
			t.Fatal(err)
		}
		doubled, err := WellFoundedViaDoubled(p, g)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.True.Equal(doubled.True) || !direct.Undefined.Equal(doubled.Undefined) {
			t.Errorf("disagreement on %v:\ndirect  true=%v undef=%v\ndoubled true=%v undef=%v",
				g, direct.True, direct.Undefined, doubled.True, doubled.Undefined)
		}
	}
}

func TestWellFoundedViaDoubledAgreesRandom(t *testing.T) {
	p := WinMoveProgram()
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		g := randomGame(rng, "v", 5, 7)
		direct, err := WellFounded(p, g)
		if err != nil {
			t.Fatal(err)
		}
		doubled, err := WellFoundedViaDoubled(p, g)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.True.Equal(doubled.True) || !direct.Undefined.Equal(doubled.Undefined) {
			t.Fatalf("disagreement on %v", g)
		}
	}
}

func TestWellFoundedViaDoubledStratifiedProgram(t *testing.T) {
	// On a stratifiable program the doubled iteration converges to the
	// stratified model with nothing undefined.
	p := ComplementTCProgram()
	in := fact.MustParseInstance(`E(a,b) E(b,c)`)
	doubled, err := WellFoundedViaDoubled(p, in)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := p.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if !doubled.True.Equal(strat) || !doubled.Undefined.Empty() {
		t.Errorf("doubled WFS of stratified program diverges from stratified semantics")
	}
}

// The paper's conclusion: connected Datalog¬ under the well-founded
// semantics stays within Mdisjoint — win-move via the doubled program.
func TestDoubledWinMoveInMdisjoint(t *testing.T) {
	prog := WinMoveProgram()
	out1 := fact.MustSchema(map[string]int{"O": 1})
	q := monotone.NewFunc("win-move(doubled)", MoveSchema, out1,
		func(i *fact.Instance) (*fact.Instance, error) {
			res, err := WellFoundedViaDoubled(prog, i)
			if err != nil {
				return nil, err
			}
			out := fact.NewInstance()
			for _, f := range res.True.Rel("Win") {
				out.Add(fact.New("O", f.Arg(0)))
			}
			return out, nil
		})
	sampler := func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		return randomGame(rng, "v", 4, 5), randomGame(rng, "w", 4, 5)
	}
	w, err := monotone.FindViolation(q, monotone.MDisjoint, sampler, 67, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("doubled win-move should be in Mdisjoint: %v", w)
	}
}

// doubledPreservesConnectivity reports whether the doubled program of
// P has the same per-rule connectivity as P — true for every program,
// since graph+ ignores relation names (the Lemma 5.2 argument).
func doubledPreservesConnectivity(p *datalog.Program) (bool, error) {
	d, err := DoubledProgram(p)
	if err != nil {
		return false, err
	}
	if len(d.Rules) != 2*len(p.Rules) {
		return false, fmt.Errorf("queries: doubled program has %d rules, want %d", len(d.Rules), 2*len(p.Rules))
	}
	for i, r := range p.Rules {
		if d.Rules[2*i].IsConnected() != r.IsConnected() || d.Rules[2*i+1].IsConnected() != r.IsConnected() {
			return false, nil
		}
	}
	return true, nil
}
