package ilog

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/obs"
)

// pathIDs is a recursive invention program: every edge gets an id, and
// the id travels along every path that starts with its edge.
const pathIDs = `Id(*, x, y) :- E(x, y).
P(i, x, y) :- Id(i, x, y).
P(i, x, z) :- P(i, x, y), E(y, z).`

const chain5 = `E(a,b) E(b,c) E(c,d) E(d,e) E(e,f)`

// TestBoundsTripExactly pins where Options.MaxRounds and
// Options.MaxFacts trip. A program whose stratum needs r rounds in all —
// the round that confirms the fixpoint included — succeeds at MaxRounds
// r and diverges at r-1; one whose instance peaks at n facts succeeds at
// MaxFacts n and diverges at n-1.
func TestBoundsTripExactly(t *testing.T) {
	cases := []struct {
		name, src, in string
		rounds, facts int
	}{
		{"edge ids", "Id(*, x, y) :- E(x, y).\nO(x, y) :- Id(i, x, y).", `E(a,b) E(b,c)`, 3, 6},
		{"one productive round", "Id(*, x, y) :- E(x, y).", `E(a,b) E(b,c)`, 2, 4},
		{"ids along paths", pathIDs, chain5, 7, 25},
	}
	for _, c := range cases {
		p := MustParseProgram(c.src)
		in := fact.MustParseInstance(c.in)
		if _, err := p.Eval(in, Options{MaxRounds: c.rounds}); err != nil {
			t.Errorf("%s: MaxRounds=%d: %v", c.name, c.rounds, err)
		}
		if _, err := p.Eval(in, Options{MaxRounds: c.rounds - 1}); !errors.Is(err, ErrDiverged) {
			t.Errorf("%s: MaxRounds=%d: got %v, want ErrDiverged", c.name, c.rounds-1, err)
		}
		out, err := p.Eval(in, Options{MaxFacts: c.facts})
		if err != nil {
			t.Errorf("%s: MaxFacts=%d: %v", c.name, c.facts, err)
		} else if out.Len() != c.facts {
			t.Errorf("%s: %d facts, want %d", c.name, out.Len(), c.facts)
		}
		if _, err := p.Eval(in, Options{MaxFacts: c.facts - 1}); !errors.Is(err, ErrDiverged) {
			t.Errorf("%s: MaxFacts=%d: got %v, want ErrDiverged", c.name, c.facts-1, err)
		}
	}
}

// TestSelfFeedingTripsAtTheBound pins the round at which a program that
// never converges is stopped: each round of N(*, n) :- N(n, x) invents
// one value, so round r leaves r+2 facts.
func TestSelfFeedingTripsAtTheBound(t *testing.T) {
	p := MustParseProgram("N(*, x) :- E(x, y).\nN(*, n) :- N(n, x).")
	in := fact.MustParseInstance(`E(a,b)`)
	cases := []struct {
		opts   Options
		rounds int // ilog.round events before ErrDiverged
		last   string
	}{
		{Options{MaxRounds: 5}, 5, `"round":4,"derived":1,"invented":1,"facts":6}`},
		{Options{MaxFacts: 5}, 5, `"round":4,"derived":1,"invented":1,"facts":6}`},
		{Options{MaxRounds: 7, MaxFacts: 6}, 6, `"round":5,"derived":1,"invented":1,"facts":7}`},
		{Options{MaxRounds: 1}, 1, `"round":0,"derived":1,"invented":1,"facts":2}`},
	}
	for _, c := range cases {
		var sb strings.Builder
		c.opts.Tracer = obs.NewStream(&sb)
		if _, err := p.Eval(in, c.opts); !errors.Is(err, ErrDiverged) {
			t.Errorf("%+v: got %v, want ErrDiverged", c.opts, err)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if len(lines) != c.rounds || !strings.HasSuffix(lines[len(lines)-1], c.last) {
			t.Errorf("MaxRounds=%d MaxFacts=%d: trace\n%s\nwant %d round events, the last ending %s",
				c.opts.MaxRounds, c.opts.MaxFacts, sb.String(), c.rounds, c.last)
		}
	}
}

// TestRecursiveInventionIsSemiNaive counts the valuations pathIDs
// enumerates on paths of n edges (the engine's dl.derivations plus
// dl.duplicates). Naive evaluation enumerates every valuation every
// round, 105 and 3,520 of them; Eval enumerates each once: the n Id and
// n path-start valuations and the n(n-1)/2 extensions.
func TestRecursiveInventionIsSemiNaive(t *testing.T) {
	p := MustParseProgram(pathIDs)
	rho, err := p.body().Stratify()
	if err != nil {
		t.Fatal(err)
	}
	valuations := func(reg *obs.Registry) int64 {
		c := reg.Snapshot().Counters
		return c[obs.DlDerivations] + c[obs.DlDuplicates]
	}
	for _, c := range []struct {
		n             int
		naive, rounds int64
	}{{5, 105, 7}, {20, 3520, 22}} {
		in := generate.Path("v", c.n)
		reg := obs.NewRegistry()
		if _, err := p.Eval(in, Options{Reg: reg}); err != nil {
			t.Fatal(err)
		}
		semi := int64(2*c.n + c.n*(c.n-1)/2)
		if got := valuations(reg); got != semi || reg.Snapshot().Counters[obs.IlogRounds] != c.rounds {
			t.Errorf("n=%d: %d valuations in %d rounds, want %d in %d",
				c.n, got, reg.Snapshot().Counters[obs.IlogRounds], semi, c.rounds)
		}
		naive := obs.NewRegistry()
		hooks := map[string]datalog.HeadHook{"Id": skolemHook("Id")}
		if _, err := datalog.EvalStrata(p.body().Strata(rho), hooks, DefaultMaxFacts, in,
			datalog.FixpointOptions{Mode: datalog.Naive, Reg: naive}); err != nil {
			t.Fatal(err)
		}
		if got := valuations(naive); got != c.naive {
			t.Errorf("n=%d: naive mode enumerated %d valuations, want %d", c.n, got, c.naive)
		}
	}
}
