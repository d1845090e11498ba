package incr

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/obs"
)

// reachProg is reachability from sources: the smallest program whose
// support can be cyclic (R(a) from R(b) and R(b) from R(a)).
const reachProg = `
R(x) :- S(x).
R(y) :- R(x), E(x,y).
`

func facts(src string) []fact.Fact { return fact.MustParseInstance(src).Facts() }

// mustApply applies the delta, audits the result against recomputation
// (counts and ranks included) and returns the stats.
func mustApply(t *testing.T, m *Materialization, d Delta) ApplyStats {
	t.Helper()
	st, err := m.Apply(d)
	if err != nil {
		t.Fatalf("Apply(%+v): %v", d, err)
	}
	checkAgainstRecompute(t, m)
	return st
}

func rankOf(m *Materialization, f string) uint32 { return recOf(m, f).Rank }

// toggleChurn is the serving write stream: n seeded toggles of directed
// edges over the four nodes <prefix>0..3, an edge that is present
// retracted and an absent one inserted.
func toggleChurn(seed int64, n int, prefix string) []Delta {
	rng := rand.New(rand.NewSource(seed))
	present := make(map[[2]int]bool)
	ds := make([]Delta, n)
	for i := range ds {
		x, y := rng.Intn(4), rng.Intn(3)
		if y >= x {
			y++
		}
		f := []fact.Fact{fact.New("E", fact.Value(fmt.Sprint(prefix, x)), fact.Value(fmt.Sprint(prefix, y)))}
		k := [2]int{x, y}
		if present[k] {
			ds[i] = Delta{Retract: f}
		} else {
			ds[i] = Delta{Insert: f}
		}
		present[k] = !present[k]
	}
	return ds
}

// TestOverdeletionIsTheLoss holds the deletion phase to what a retract
// loses: on the serving churn beside a 64-chain it removes at most 3.0
// facts a retract (the loss itself is about 1.9) and at most 30% of
// those come back, the same counts on every run.
func TestOverdeletionIsTheLoss(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		var first ApplyStats
		for i := 0; i < 2; i++ {
			m := mustNew(t, tcProg, generate.Path("n", 64), Options{})
			var tot ApplyStats
			retracts := 0
			for _, d := range toggleChurn(seed, 2000, "w") {
				st, err := m.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				retracts += st.BaseRetracted
				tot.Overdeleted += st.Overdeleted
				tot.Rederived += st.Rederived
				tot.Kept += st.Kept
				tot.DerivedRemoved += st.DerivedRemoved
			}
			checkAgainstRecompute(t, m)
			if i == 0 {
				first = tot
				t.Logf("seed %d: %d retracts, %d removed, %d overdeleted, %d rederived, %d kept", seed, retracts, tot.DerivedRemoved, tot.Overdeleted, tot.Rederived, tot.Kept)
			}
			if tot != first {
				t.Errorf("seed %d, run %d: %+v, the first run counted %+v", seed, i, tot, first)
			}
			if per := float64(tot.Overdeleted) / float64(retracts); per > 3.0 {
				t.Errorf("seed %d: %.2f facts over-deleted a retract, want at most 3.0", seed, per)
			}
			if share := float64(tot.Rederived) / float64(tot.Overdeleted); share > 0.30 {
				t.Errorf("seed %d: %.2f of the over-deleted facts came back, want at most 0.30", seed, share)
			}
			if tot.Overdeleted-tot.Rederived != tot.DerivedRemoved {
				t.Errorf("seed %d: %d over-deleted - %d rederived != %d removed", seed, tot.Overdeleted, tot.Rederived, tot.DerivedRemoved)
			}
		}
	}
}

// TestCyclesWithoutOutsideSupportDie: the facts of a cycle vouch for
// one another with positive counts; when the one derivation from
// outside goes, ranks say so and the whole cycle dies with it.
func TestCyclesWithoutOutsideSupportDie(t *testing.T) {
	for _, cycle := range []string{"E(a,b) E(b,a)", "E(a,b) E(b,c) E(c,a)"} {
		m := mustNew(t, reachProg, fact.MustParseInstance("S(s) E(s,a) "+cycle), Options{})
		n := len(facts(cycle))
		st := mustApply(t, m, Delta{Retract: facts("E(s,a)")})
		if got := indexRel(m, "R"); len(got) != 1 {
			t.Errorf("%s: R = %v after the entry edge went, want R(s) alone", cycle, got)
		}
		if st.DerivedRemoved != n || st.Rederived != 0 || st.Kept != 0 {
			t.Errorf("%s: %+v, want %d removed, none back, none kept", cycle, st, n)
		}
	}
}

// TestSecondEntryEdgeKeepsTheCycle: a fact that loses one derivation
// and keeps one over a fact of lower rank stays where it is.
func TestSecondEntryEdgeKeepsTheCycle(t *testing.T) {
	m := mustNew(t, reachProg, fact.MustParseInstance("S(s) E(s,b) E(a,b) E(b,a)"), Options{})
	mustApply(t, m, Delta{Insert: facts("E(s,a)")})
	before := rankOf(m, "R(a)")
	if lo := rankOf(m, "R(b)"); lo >= before {
		t.Fatalf("rank R(b) = %d, rank R(a) = %d: the fixture wants the first lower", lo, before)
	}
	st := mustApply(t, m, Delta{Retract: facts("E(s,a)")})
	if st.Overdeleted != 0 || st.Rederived != 0 || st.DerivedRemoved != 0 || st.Kept != 1 {
		t.Errorf("%+v, want nothing deleted and R(a) kept", st)
	}
	if after := rankOf(m, "R(a)"); !m.Has(fact.MustParseFact("R(a)")) || after != before {
		t.Errorf("R(a) has rank %d after the retract, %d before it", after, before)
	}
}

// TestLongerDerivationComesBackWithAFreshRank: the derivation left to a
// fact runs over a fact of higher rank, so nothing proves it is not a
// cycle: the fact goes, comes back through the insertion phase, and
// ranks above what it now rests on.
func TestLongerDerivationComesBackWithAFreshRank(t *testing.T) {
	m := mustNew(t, reachProg, fact.MustParseInstance("S(s) E(s,a) E(s,x) E(x,y) E(y,a)"), Options{})
	before, via := rankOf(m, "R(a)"), rankOf(m, "R(y)")
	if before >= via {
		t.Fatalf("rank R(a) = %d, rank R(y) = %d: the fixture wants the first lower", before, via)
	}
	st := mustApply(t, m, Delta{Retract: facts("E(s,a)")})
	if st.Overdeleted != 1 || st.Rederived != 1 || st.DerivedRemoved != 0 || st.DerivedAdded != 0 {
		t.Errorf("%+v, want R(a) over-deleted and back, no net change", st)
	}
	if after := rankOf(m, "R(a)"); !m.Has(fact.MustParseFact("R(a)")) || after <= via {
		t.Errorf("R(a) has rank %d after coming back, R(y) under it has %d", after, via)
	}
}

// TestMixedDeltaReadsTheOldView: one apply cuts the support of R(f)
// and, a stratum below, derives G(h,f) — a new derivation of R(f) over
// R(h), of lower rank. R(h) is on its way out too, four waves later,
// and the cascade joins the view from before the apply, where G(h,f)
// is not: a check that read the moving materialization would spare
// R(f) on a derivation whose loss nothing would ever report.
func TestMixedDeltaReadsTheOldView(t *testing.T) {
	m := mustNew(t, `
G(x,y) :- L(x,y), !Blocked(x).
R(x)   :- S(x).
R(y)   :- R(x), E(x,y), !G(y,y).
R(y)   :- R(x), G(x,y).
`, fact.MustParseInstance(`
		S(s) L(h,f) Blocked(h)
		E(s,p1) E(p1,p2) E(p2,p3) E(p3,h)
		E(s,y1) E(y1,y2) E(y2,y3) E(y3,y4) E(y4,f) E(f,g) E(g,f)
	`), Options{})
	mustApply(t, m, Delta{Insert: facts("E(s,q) E(q,f)")})
	mustApply(t, m, Delta{Retract: facts("E(y4,f)")})
	if h, f := rankOf(m, "R(h)"), rankOf(m, "R(f)"); h >= f || !m.Has(fact.MustParseFact("R(g)")) {
		t.Fatalf("rank R(h) = %d, rank R(f) = %d: the fixture wants the first lower, and R(g) held", h, f)
	}
	st := mustApply(t, m, Delta{Retract: facts("E(s,q) E(s,p1) Blocked(h)")})
	for _, f := range facts("R(f) R(g) R(h)") {
		if m.Has(f) {
			t.Errorf("%v survived the apply", f)
		}
	}
	if !m.Has(fact.MustParseFact("G(h,f)")) || st.Kept != 0 {
		t.Errorf("G(h,f) held: %v; %+v, want nothing kept", m.Has(fact.MustParseFact("G(h,f)")), st)
	}
}

// churnSession drives a fixed mixed stream through m, snapshotting and
// restoring in the middle when restart is set (ranks stripped from the
// snapshot when unranked is), and returns the event stream from the
// restart on.
func churnSession(t *testing.T, restart, unranked bool) string {
	t.Helper()
	var sb strings.Builder
	opts := Options{Tracer: obs.NewStream(&sb)}
	m := mustNew(t, noLoopProg, generate.Path("n", 6), opts)
	for i, d := range toggleChurn(7, 120, "n") {
		if i == 60 {
			sb.Reset()
			if restart {
				snap := snapshotString(t, m)
				if unranked {
					snap = reseal(regexp.MustCompile(`,"r":\d+`).ReplaceAllString(snap, ""))
				}
				var err error
				if m, err = Restore(strings.NewReader(snap), opts); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				checkAgainstRecompute(t, m)
			}
		}
		mustApply(t, m, d)
	}
	return sb.String()
}

// TestRestoredStreamIsTheSameStream: a snapshot carries ranks and the
// clock, so a restored materialization spares, over-deletes and
// rederives exactly what one that never restarted does — the same
// incr.stratum events on the same stream. A snapshot without ranks
// restores to the same facts and the same answers, its facts unranked:
// the first retract that reaches one over-deletes it, and it comes
// back ranked.
func TestRestoredStreamIsTheSameStream(t *testing.T) {
	straight := churnSession(t, false, false)
	if !strings.Contains(straight, `"alg":"dred"`) || strings.Count(straight, `"kept":0`) == strings.Count(straight, `"kept":`) {
		t.Fatalf("the session never compares ranks or never keeps a fact:\n%s", straight)
	}
	if restored := churnSession(t, true, false); restored != straight {
		t.Errorf("event stream after a restart differs:\n--- never restarted ---\n%s--- restored ---\n%s", straight, restored)
	}
	if unranked := churnSession(t, true, true); unranked == straight {
		t.Error("a snapshot stripped of its ranks maintained exactly like one with them: the ranks are not being read")
	}
}

// TestUnrankedFactsAreNeverSpared: a snapshot line without a rank
// restores as a fact like any other whose rank is missing, and a
// snapshot whose ranks run ahead of its clock does not restore.
func TestUnrankedFactsAreNeverSpared(t *testing.T) {
	m := mustNew(t, reachProg, fact.MustParseInstance("S(s) E(s,b) E(a,b) E(b,a)"), Options{})
	mustApply(t, m, Delta{Insert: facts("E(s,a)")})
	snap := reseal(regexp.MustCompile(`,"r":\d+`).ReplaceAllString(snapshotString(t, m), ""))
	m, err := Restore(strings.NewReader(snap), Options{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if d := recOf(m, "R(a)"); d.Rank != 0 || d.N != 2 {
		t.Fatalf("R(a) restored with rank %d, support %d; want unranked, 2", d.Rank, d.N)
	}
	st := mustApply(t, m, Delta{Retract: facts("E(s,a)")})
	if st.Kept != 0 || st.Overdeleted != 2 || st.Rederived != 2 {
		t.Errorf("%+v, want the unranked R(a), and R(b) which it reaches, over-deleted and back", st)
	}
	if a, b := rankOf(m, "R(a)"), rankOf(m, "R(b)"); a == 0 || b == 0 {
		t.Errorf("R(a) and R(b) came back with ranks %d and %d", a, b)
	}
	if _, err := Restore(strings.NewReader(reseal(strings.Replace(snapshotString(t, m), `"clock":`, `"clock":0,"was":`, 1))), Options{}); err == nil || !strings.Contains(err.Error(), "the clock reads 0") {
		t.Errorf("a snapshot whose ranks run ahead of its clock restored, or failed otherwise: %v", err)
	}
}

// TestRecordIsThirtyTwoBitsTwice: when the clock runs out of ranks
// every fact goes unranked and maintenance carries on above them; a
// support count that would not fit fails its apply instead of wrapping.
func TestRecordIsThirtyTwoBitsTwice(t *testing.T) {
	m := mustNew(t, noLoopProg, generate.Path("n", 6), Options{})
	m.clock = math.MaxUint32 - 3
	for _, d := range toggleChurn(3, 60, "n") {
		mustApply(t, m, d)
	}
	if m.clock == 0 || m.clock >= math.MaxUint32-3 {
		t.Errorf("the clock reads %d after running out", m.clock)
	}

	m = mustNew(t, tcProg, fact.MustParseInstance("E(a,b) E(b,d)"), Options{})
	m.rec(fact.MustParseFact("T(a,d)")).N = math.MaxUint32
	if _, err := m.Apply(Delta{Insert: facts("E(a,c) E(c,d)")}); err == nil || !strings.Contains(err.Error(), "support overflow") {
		t.Errorf("a second derivation on a full count: %v, want a support overflow", err)
	}
	if m.Err() == nil {
		t.Error("the failed apply left the materialization in service")
	}
}
