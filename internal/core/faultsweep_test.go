package core

import (
	"testing"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// Fuzzing each strategy against its class boundary with the schedule
// explorer: on a query inside the class, every explored schedule —
// starvation, greedy fresh-value adversaries, seeded fault plans —
// must converge to the centralized answer without ever leaving it;
// one class up, the explorer rediscovers the known divergences.

var (
	sweepNet     = transducer.MustNetwork("n1", "n2", "n3")
	sweepGraph   = fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d) E(d,e)`)
	sweepCycle   = fact.MustParseInstance(`E(a,b) E(b,x) E(x,a)`)
	twoTriangles = fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(x,y) E(y,z) E(z,x)`)
)

func sweepGuided() transducer.Policy {
	return transducer.DomainGuided(transducer.HashAssignment(sweepNet))
}

func TestInClassStrategiesSurviveFaultSchedules(t *testing.T) {
	cases := []struct {
		name string
		s    Strategy
		q    monotone.Query
		pol  transducer.Policy
	}{
		{"broadcast/TC", Broadcast, queries.TC(), transducer.HashPolicy(sweepNet)},
		{"absence/NoLoop", Absence, queries.NoLoop(), transducer.HashPolicy(sweepNet)},
		{"domainreq/QTC", DomainRequest, queries.ComplementTC(), sweepGuided()},
	}
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, stats, err := ExploreStrategy(c.s, c.q, sweepNet, c.pol, sweepGraph,
				transducer.ExploreOptions{Seeds: seeds, Faults: FaultConfigFor(c.s)})
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatalf("in-class violation after %d schedules: %v", stats.Schedules, v)
			}
		})
	}
}

func TestExplorerRediscoversOutOfClassDivergences(t *testing.T) {
	cases := []struct {
		name string
		s    Strategy
		q    monotone.Query
		pol  transducer.Policy
		in   *fact.Instance
	}{
		// broadcast handles M only; NoLoop ∈ Mdistinct \ M.
		{"broadcast/NoLoop", Broadcast, queries.NoLoop(), transducer.HashPolicy(sweepNet), sweepGraph},
		// absence handles Mdistinct; QTC ∈ Mdisjoint \ Mdistinct.
		{"absence/QTC", Absence, queries.ComplementTC(), transducer.HashPolicy(sweepNet), sweepCycle},
		// domainreq handles Mdisjoint; triangles ∈ C \ Mdisjoint.
		{"domainreq/triangles", DomainRequest, queries.TrianglesUnlessTwoDisjoint(), sweepGuided(), twoTriangles},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, stats, err := ExploreStrategy(c.s, c.q, sweepNet, c.pol, c.in,
				transducer.ExploreOptions{Seeds: 50, Faults: FaultConfigFor(c.s)})
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				t.Fatalf("divergence not rediscovered in %d schedules", stats.Schedules)
			}
			if v.Kind != transducer.WrongFact {
				t.Errorf("Kind = %v, want wrong-fact", v.Kind)
			}
			t.Logf("rediscovered via %s: %v", v.Schedule, v.Bad)
		})
	}
}

// The explorer also demonstrates why FaultConfigFor excludes crash
// faults for DomainRequest: the Xok certificate asserts that the
// requester has stored every fact of a value — volatile state that a
// crash-restart wipes while the recovery rebroadcast re-delivers the
// stale certificate, so the restarted node can output before its data
// re-arrives.
func TestCrashRestartBreaksDomainRequestCertificates(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep needs a few hundred seeds")
	}
	v, stats, err := ExploreStrategy(DomainRequest, queries.ComplementTC(), sweepNet, sweepGuided(), sweepGraph,
		transducer.ExploreOptions{Seeds: 200, Faults: transducer.DefaultFaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatalf("crash divergence not found in %d schedules", stats.Schedules)
	}
	if v.Kind != transducer.WrongFact {
		t.Errorf("Kind = %v, want wrong-fact", v.Kind)
	}
	t.Logf("crash schedule: %s → %v", v.Schedule, v.Bad)
}

func TestFaultConfigFor(t *testing.T) {
	def := transducer.DefaultFaultConfig()
	if cfg := FaultConfigFor(Broadcast); cfg != def {
		t.Errorf("broadcast config = %+v, want default", cfg)
	}
	if cfg := FaultConfigFor(Absence); cfg != def {
		t.Errorf("absence config = %+v, want default", cfg)
	}
	cfg := FaultConfigFor(DomainRequest)
	if cfg.Crashes != 0 {
		t.Errorf("domainreq config schedules %d crashes, want 0", cfg.Crashes)
	}
	cfg.Crashes = def.Crashes
	if cfg != def {
		t.Errorf("domainreq config differs beyond crashes: %+v", cfg)
	}
}

// ComputeRun under a fault plan, end-to-end: a concrete parsed plan
// with every fault kind still converges for an in-class strategy.
func TestComputeFaultyConverges(t *testing.T) {
	plan, err := transducer.ParseFaultPlan("dup=0.3,delay=0.5:4,stall=n2@2-6,crash=n3@8,part=3-7:n1", 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queries.TC().Eval(sweepGraph)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ComputeRun(Broadcast, queries.TC(), sweepNet, transducer.HashPolicy(sweepNet), sweepGraph, RunConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(want) {
		t.Errorf("faulty run output %v, want %v", res.Output, want)
	}
	if res.Metrics.Crashes != 1 || res.Metrics.StalledSteps == 0 {
		t.Errorf("plan not exercised: %+v", res.Metrics)
	}
}
