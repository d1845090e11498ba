package generate

import (
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
)

func TestValues(t *testing.T) {
	vs := Values("x", 3)
	if len(vs) != 3 || vs[0] != "x0" || vs[2] != "x2" {
		t.Errorf("Values = %v", vs)
	}
}

func TestPath(t *testing.T) {
	p := Path("v", 3)
	if p.Len() != 3 {
		t.Errorf("Path(3) has %d edges", p.Len())
	}
	if !p.Has(fact.New("E", "v0", "v1")) || !p.Has(fact.New("E", "v2", "v3")) {
		t.Errorf("Path edges wrong: %v", p)
	}
}

func TestCycle(t *testing.T) {
	c := Cycle("v", 4)
	if c.Len() != 4 || !c.Has(fact.New("E", "v3", "v0")) {
		t.Errorf("Cycle = %v", c)
	}
}

func TestClique(t *testing.T) {
	k := Clique("v", 4)
	if k.Len() != 12 { // n(n-1) directed edges
		t.Errorf("Clique(4) has %d edges, want 12", k.Len())
	}
	if k.Has(fact.New("E", "v0", "v0")) {
		t.Error("Clique should be loop-free")
	}
}

func TestStar(t *testing.T) {
	s := Star("c", "s", 5)
	if s.Len() != 5 {
		t.Errorf("Star(5) has %d edges", s.Len())
	}
	for _, f := range s.Facts() {
		if f.Arg(0) != "c" {
			t.Errorf("non-center edge %v", f)
		}
	}
}

func TestTriangle(t *testing.T) {
	tr := Triangle("a", "b", "c")
	if tr.Len() != 3 || !tr.Has(fact.New("E", "c", "a")) {
		t.Errorf("Triangle = %v", tr)
	}
}

func TestDisjointUnion(t *testing.T) {
	u := DisjointUnion(Path("a", 2), Path("b", 2))
	if u.Len() != 4 {
		t.Errorf("DisjointUnion size = %d", u.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("overlapping DisjointUnion should panic")
		}
	}()
	DisjointUnion(Path("a", 2), Path("a", 2))
}

func TestBipartite(t *testing.T) {
	b := bipartite("l", 2, "r", 3)
	if b.Len() != 6 {
		t.Errorf("bipartite(2,3) has %d edges, want 6", b.Len())
	}
	for _, f := range b.Facts() {
		if f.Arg(0)[0] != 'l' || f.Arg(1)[0] != 'r' {
			t.Errorf("edge %v crosses the wrong way", f)
		}
	}
}

func TestTournament(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tour := Tournament(rng, "v", 5)
	if tour.Len() != 10 { // C(5,2)
		t.Errorf("Tournament(5) has %d edges, want 10", tour.Len())
	}
	// Exactly one orientation per pair.
	for _, f := range tour.Facts() {
		if tour.Has(fact.New("E", f.Arg(1), f.Arg(0))) {
			t.Errorf("both orientations present for %v", f)
		}
	}
	// Deterministic under the seed.
	again := Tournament(rand.New(rand.NewSource(3)), "v", 5)
	if !tour.Equal(again) {
		t.Error("Tournament not deterministic for a fixed seed")
	}
}

func TestGrid(t *testing.T) {
	g := Grid("g", 3, 2)
	// Horizontal: 2 per row × 2 rows; vertical: 1 per column × 3 columns.
	if g.Len() != 7 {
		t.Errorf("Grid(3,2) has %d edges, want 7", g.Len())
	}
	if !g.Has(fact.New("E", "g0_0", "g1_0")) || !g.Has(fact.New("E", "g0_0", "g0_1")) {
		t.Errorf("grid edges missing: %v", g)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := RandomGraph(rand.New(rand.NewSource(5)), "v", 4, 6)
	b := RandomGraph(rand.New(rand.NewSource(5)), "v", 4, 6)
	if !a.Equal(b) {
		t.Error("same seed should give same instance")
	}
	for _, f := range a.Facts() {
		if f.Rel() != "E" || f.Arity() != 2 {
			t.Errorf("bad fact %v", f)
		}
	}
}

func TestAllGraphsCount(t *testing.T) {
	count := 0
	AllGraphs(Values("v", 2), func(g *fact.Instance) bool {
		count++
		return true
	})
	if count != 16 { // 2^(2*2)
		t.Errorf("AllGraphs(2) visited %d graphs, want 16", count)
	}
	// Early stop.
	count = 0
	AllGraphs(Values("v", 2), func(g *fact.Instance) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestSubsets(t *testing.T) {
	i := Path("v", 3)
	count := 0
	seen := make(map[string]bool)
	subsets(i, func(s *fact.Instance) bool {
		count++
		if !s.SubsetOf(i) {
			t.Errorf("non-subset %v", s)
		}
		seen[s.String()] = true
		return true
	})
	if count != 8 || len(seen) != 8 {
		t.Errorf("Subsets visited %d (%d unique), want 8", count, len(seen))
	}
}

// Every generated random program must parse and validate (safety is by
// construction), and a healthy fraction must be stratifiable so the
// cross-mode differential tests have material to work with.
func TestRandomProgramAlwaysSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stratifiable := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		src := RandomProgram(rng, 1+rng.Intn(5))
		p, err := datalog.ParseProgram(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated program unsafe: %v\n%s", err, src)
		}
		if p.IsStratifiable() {
			stratifiable++
		}
	}
	if stratifiable < trials/2 {
		t.Errorf("only %d/%d generated programs stratifiable", stratifiable, trials)
	}
}
