package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// Random sampling of the "for all distribution policies" quantifier:
// each strategy stays correct across 25 random policies (resp. random
// domain assignments) and random inputs.
func TestStrategiesUnderRandomPolicies(t *testing.T) {
	net := transducer.MustNetwork("n1", "n2", "n3")
	rng := rand.New(rand.NewSource(83))

	for seed := int64(0); seed < 25; seed++ {
		in := generate.RandomGraph(rng, "v", 4, 5)

		// Broadcast + TC under an arbitrary random policy.
		{
			q := queries.TC()
			want, err := q.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Compute(Broadcast, q, net, transducer.RandomPolicy(net, seed), in, 0)
			if err != nil {
				t.Fatalf("broadcast seed %d: %v", seed, err)
			}
			if !res.Output.Equal(want) {
				t.Errorf("broadcast seed %d on %v: got %v, want %v", seed, in, res.Output, want)
			}
		}

		// Absence + NoLoop under an arbitrary random policy.
		{
			q := queries.NoLoop()
			want, err := q.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Compute(Absence, q, net, transducer.RandomPolicy(net, seed), in, 0)
			if err != nil {
				t.Fatalf("absence seed %d: %v", seed, err)
			}
			if !res.Output.Equal(want) {
				t.Errorf("absence seed %d on %v: got %v, want %v", seed, in, res.Output, want)
			}
		}

		// DomainRequest + QTC under a random domain-guided policy.
		{
			q := queries.ComplementTC()
			want, err := q.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			pol := transducer.DomainGuided(transducer.RandomAssignment(net, seed))
			res, err := Compute(DomainRequest, q, net, pol, in, 0)
			if err != nil {
				t.Fatalf("domainreq seed %d: %v", seed, err)
			}
			if !res.Output.Equal(want) {
				t.Errorf("domainreq seed %d on %v: got %v, want %v", seed, in, res.Output, want)
			}
		}
	}
}

// Random policies are total, stable, and in-network.
func TestRandomPolicyWellFormed(t *testing.T) {
	net := transducer.MustNetwork("a", "b", "c")
	pol := transducer.RandomPolicy(net, 7)
	alpha := transducer.RandomAssignment(net, 7)
	for _, f := range []fact.Fact{
		fact.New("E", "x", "y"), fact.New("E", "x", "x"), fact.New("R", "z"),
	} {
		nodes := pol.Nodes(f)
		if len(nodes) == 0 {
			t.Errorf("empty node set for %v", f)
		}
		again := pol.Nodes(f)
		if len(again) != len(nodes) {
			t.Errorf("policy unstable for %v", f)
		}
		for _, x := range nodes {
			if !slices.Contains(net, x) {
				t.Errorf("foreign node %s", x)
			}
		}
	}
	for _, v := range []fact.Value{"x", "y", "zzz"} {
		if len(alpha.Assign(v)) == 0 {
			t.Errorf("empty assignment for %s", v)
		}
	}
	// A guided policy from a random assignment passes the
	// domain-guidedness check.
	guided := transducer.DomainGuided(alpha)
	if !transducer.IsDomainGuidedOn(guided, fact.GraphSchema(), []fact.Value{"x", "y", "z"}) {
		t.Error("random assignment's guided policy failed the check")
	}
}
