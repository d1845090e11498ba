package monotone_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/monotone"
	"repro/internal/queries"
)

// TestFigure2Memberships pins the membership set and the licence of
// the paper's programs and of the two probes where Figure 2's
// fragments overlap: SP-Datalog and con-Datalog¬ are incomparable, so
// the first probe is in both, and the strongest class decides.
func TestFigure2Memberships(t *testing.T) {
	doubled, err := queries.DoubledProgram(queries.WinMoveProgram())
	if err != nil {
		t.Fatal(err)
	}
	const (
		all    = "Datalog, Datalog(≠), SP-Datalog, con-Datalog¬, semicon-Datalog¬, Datalog¬"
		spCon  = "SP-Datalog, con-Datalog¬, semicon-Datalog¬, Datalog¬"
		con    = "con-Datalog¬, semicon-Datalog¬, Datalog¬"
		m      = "M (Prop 3.1, F2.1)"
		mDist  = "M_distinct (Thm 4.3, F2.2)"
		mDisj  = "M_disjoint (Thm 5.3, F2.3)"
		noneP2 = "none (Example 5.1, F2.5)"
	)
	for _, c := range []struct {
		name             string
		p                *datalog.Program
		members, licence string
	}{
		{"probe O :- E, ¬E", datalog.MustParseProgram(`O(x,y) :- E(x,y), !E(y,x).`), spCon, mDist},
		{"probe TC + O :- T, ¬T", datalog.MustParseProgram(`
			T(x,y) :- E(x,y).
			T(x,y) :- E(x,z), T(z,y).
			O(x,y) :- T(x,y), !T(y,x).`), con, mDisj},
		{"Example 5.1 P1", queries.Example51P1(), con, mDisj},
		{"Example 5.1 P2", queries.Example51P2(), "Datalog¬", noneP2},
		{"QTC", queries.ComplementTCProgram(), "semicon-Datalog¬, Datalog¬", mDisj},
		{"NoLoop", queries.NoLoopProgram(), spCon, mDist},
		{"TC", queries.TCProgram(), all, m},
		{"doubled win-move", doubled, con, mDisj},
	} {
		ms := c.p.Memberships()
		if got := ms.String(); got != c.members {
			t.Errorf("%s: memberships %q, want %q", c.name, got, c.members)
		}
		if got := monotone.Licence(ms).String(); got != c.licence {
			t.Errorf("%s: licence %q, want %q", c.name, got, c.licence)
		}
	}
}

// TestFigure2RowsAreExperiments: every row's experiment id is a row
// of the committed reproduction matrix, so the theorem the table
// cites is one the reproduction checks.
func TestFigure2RowsAreExperiments(t *testing.T) {
	out, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[1] == "]" {
			ids[f[2]] = true
		}
	}
	for _, r := range monotone.Figure2 {
		if !ids[r.Experiment] {
			t.Errorf("row %s cites %s, which is not a row of experiments_output.txt", r.Fragment, r.Experiment)
		}
	}
}
