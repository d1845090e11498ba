package monotone

import (
	"fmt"

	"repro/internal/datalog"
)

// Row is one fragment of Figure 2 and what the paper proves of it; the
// planner and dlog read these facts from Figure2 and nowhere else.
type Row struct {
	Fragment datalog.Fragment
	// Class holds every program of the fragment; nil when none does
	// (Example 5.1's P2 is not even in Mdisjoint). The writes J it
	// licenses on a base I are those Class.Allows(J, probe of I) admits.
	Class *Class
	// Theorem proves the row; Experiment is its experiments_output.txt row.
	Theorem, Experiment string
	// Distributes: P(I) = ∪ P(C) over the components C ∈ co(I).
	Distributes bool
}

// Figure2 holds one row per fragment, most specific first.
// con-Datalog¬ ⊆ semicon-Datalog¬, so its class is Mdisjoint too.
var Figure2 = []Row{
	{datalog.FragDatalog, &M, "Prop 3.1", "F2.1", false},
	{datalog.FragDatalogNeq, &M, "Prop 3.1", "F2.1", false},
	{datalog.FragSPDatalog, &MDistinct, "Thm 4.3", "F2.2", false},
	{datalog.FragConDatalog, &MDisjoint, "Lemma 5.2", "F2.4", true},
	{datalog.FragSemiconDatalog, &MDisjoint, "Thm 5.3", "F2.3", false},
	{datalog.FragStratified, nil, "Example 5.1", "F2.5", false},
}

// Licence returns the member row whose class Implies every other
// member's (whose Allows admits the most writes), the later of two
// equal ones; else a classless member row, or the zero Row.
func Licence(m datalog.Memberships) Row {
	var best Row
	for _, r := range Figure2 {
		if m.Has(r.Fragment) && (best.Fragment == "" ||
			r.Class != nil && (best.Class == nil || r.Class.Implies(*best.Class))) {
			best = r
		}
	}
	return best
}

// String renders the licence and its source: "M_distinct (Thm 4.3, F2.2)".
func (r Row) String() string {
	class := "none"
	if r.Class != nil {
		class = r.Class.String()
	}
	return fmt.Sprintf("%s (%s, %s)", class, r.Theorem, r.Experiment)
}
