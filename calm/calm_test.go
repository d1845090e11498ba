package calm_test

import (
	"testing"

	"repro/calm"
)

// The facade smoke test doubles as end-to-end documentation: it walks
// the README quick-start and a few more public entry points.
func TestQuickstartFlow(t *testing.T) {
	q := calm.WinMove()
	net := calm.MustNetwork("n1", "n2", "n3")
	pol := calm.DomainGuided(calm.HashAssignment(net))
	in := calm.MustParseInstance(`Move(a,b) Move(b,c)`)

	res, err := calm.Compute(calm.DomainRequest, q, net, pol, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(want) {
		t.Errorf("distributed %v != central %v", res.Output, want)
	}
	ok, err := calm.VerifyCoordinationFree(calm.DomainRequest, q, net, in)
	if err != nil || !ok {
		t.Errorf("coordination-free witness: ok=%v err=%v", ok, err)
	}
}

func TestDatalogFlow(t *testing.T) {
	prog, err := calm.ParseProgram(`
		T(x,y) :- E(x,y).
		T(x,z) :- T(x,y), E(y,z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Classify(); got != calm.FragDatalog {
		t.Errorf("Classify = %v", got)
	}
	q, err := calm.NewDatalogQuery(prog, "T")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Eval(calm.MustParseInstance(`E(a,b) E(b,c)`))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("TC size = %d", out.Len())
	}
}

func TestMonotonicityFlow(t *testing.T) {
	q := calm.NoLoop()
	i := calm.MustParseInstance(`E(a,b)`)
	j := calm.MustParseInstance(`E(a,a)`)
	w, err := calm.CheckPair(q, i, j)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Error("NoLoop should violate M")
	}
	if !calm.MDistinct.Allows(calm.MustParseInstance(`E(a,c)`), i.Known()) {
		t.Error("Allows misbehaves through the facade")
	}
}

func TestWellFoundedFlow(t *testing.T) {
	won, lost, drawn, err := calm.WinMoveClassified(calm.MustParseInstance(`Move(a,b) Move(b,a)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(won) != 0 || len(lost) != 0 || len(drawn) != 2 {
		t.Errorf("cycle classification: won=%v lost=%v drawn=%v", won, lost, drawn)
	}
	// Doubled-program route agrees.
	prog := calm.MustParseProgram(`Win(x) :- Move(x,y), !Win(y).`)
	res, err := calm.WellFoundedViaDoubled(prog, calm.MustParseInstance(`Move(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.True.Has(calm.NewFact("Win", "a")) {
		t.Errorf("doubled WFS: %v", res.True)
	}
}

func TestILOGFlow(t *testing.T) {
	p, err := calm.ParseILOGProgram(`
		Id(*, x, y) :- E(x,y).
		O(x,y)      :- Id(i, x, y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsWeaklySafe("O") {
		t.Error("edge-id program should be weakly safe")
	}
}

func TestComponentsFlow(t *testing.T) {
	i := calm.MustParseInstance(`E(a,b) E(x,y)`)
	if got := len(calm.Components(i)); got != 2 {
		t.Errorf("components = %d", got)
	}
	if !calm.MDisjoint.Allows(calm.MustParseInstance(`E(p,q)`), i.Known()) {
		t.Error("MDisjoint.Allows misbehaves through the facade")
	}
}

// Explore model-checks every heartbeat/deliver-all schedule to a
// bounded depth: the broadcast strategy keeps TC's output inside the
// answer on every schedule, and on NoLoop, one class up, a schedule
// outputs a fact the answer lacks.
func TestExploreFlow(t *testing.T) {
	net := calm.MustNetwork("n1", "n2")
	in := calm.MustParseInstance(`E(a,b) E(b,b)`)
	for _, c := range []struct {
		q      calm.Query
		unsafe bool
	}{{calm.TC(), false}, {calm.NoLoop(), true}} {
		tr, err := calm.BuildStrategy(calm.Broadcast, c.q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.q.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		var v *calm.ScheduleViolation
		v, err = calm.Explore(net, tr, calm.HashPolicy(net), calm.Broadcast.RequiredModel(), in, want, 3)
		if err != nil {
			t.Fatal(err)
		}
		if (v != nil) != c.unsafe {
			t.Errorf("%s: violation %v, want unsafe=%v", c.q.Name(), v, c.unsafe)
		}
		if v != nil && (v.Schedule != "n1:hb n1:hb n2:hb" || v.Step != 3 || !v.Bad.Equal(calm.MustParseFact("O(b)"))) {
			t.Errorf("%s: %v, want O(b) at step 3 of n1:hb n1:hb n2:hb", c.q.Name(), v)
		}
		v, _, err = calm.ExploreSchedules(net, tr, calm.HashPolicy(net), calm.Broadcast.RequiredModel(), in, want, calm.ExploreOptions{Seeds: 5})
		if err != nil || (v != nil) != c.unsafe {
			t.Errorf("%s: ExploreSchedules violation %v, error %v, want unsafe=%v", c.q.Name(), v, err, c.unsafe)
		}
		if c.unsafe {
			continue
		}
		res, err := calm.ComputeRun(calm.Broadcast, c.q, net, calm.HashPolicy(net), in, calm.RunConfig{Seed: 3, RandomSteps: 10})
		if err != nil || !res.Output.Equal(want) {
			t.Errorf("%s: seeded run gave %v, error %v, want %v", c.q.Name(), res, err, want)
		}
	}
}
