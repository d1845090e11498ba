package monotone

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fact"
	"repro/internal/generate"
)

// Implies must be sound w.r.t. Allows: when c.Implies(d), every pair
// allowed by d is allowed by c (so monotonicity under c entails
// monotonicity under d).
func TestImpliesSoundForAllows(t *testing.T) {
	classes := []Class{
		M, MDistinct, MDisjoint,
		Mi(1), Mi(2), Mi(3),
		MiDistinct(1), MiDistinct(2), MiDistinct(3),
		MiDisjoint(1), MiDisjoint(2), MiDisjoint(3),
	}
	rng := rand.New(rand.NewSource(71))
	pairs := make([][2]*fact.Instance, 0, 100)
	for k := 0; k < 100; k++ {
		i := generate.RandomGraph(rng, "v", 3, 3)
		pool := append(generate.Values("v", 3), generate.Values("w", 3)...)
		j := generate.Random(rng, fact.GraphSchema(), pool, 3)
		pairs = append(pairs, [2]*fact.Instance{i, j})
	}
	for _, c := range classes {
		for _, d := range classes {
			if !c.Implies(d) {
				continue
			}
			for _, p := range pairs {
				if d.Allows(p[1], p[0].Known()) && !c.Allows(p[1], p[0].Known()) {
					t.Fatalf("%v implies %v but pair I=%v J=%v allowed only by %v",
						c, d, p[0], p[1], d)
				}
			}
		}
	}
}

// Implies is reflexive and transitive on the class lattice.
func TestImpliesLattice(t *testing.T) {
	classes := []Class{M, MDistinct, MDisjoint, Mi(2), MiDistinct(2), MiDisjoint(2), MiDisjoint(5)}
	for _, c := range classes {
		if !c.Implies(c) {
			t.Errorf("%v does not imply itself", c)
		}
	}
	for _, a := range classes {
		for _, b := range classes {
			for _, c := range classes {
				if a.Implies(b) && b.Implies(c) && !a.Implies(c) {
					t.Errorf("transitivity broken: %v → %v → %v", a, b, c)
				}
			}
		}
	}
}

// Allows is monotone in the bound and antitone in the kind.
func TestAllowsStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i := generate.RandomGraph(rng, "v", 3, 3)
		pool := append(generate.Values("v", 3), generate.Values("w", 2)...)
		j := generate.Random(rng, fact.GraphSchema(), pool, 2)
		// Disjoint ⊆ Distinct ⊆ Any.
		if MDisjoint.Allows(j, i.Known()) && !MDistinct.Allows(j, i.Known()) {
			return false
		}
		if MDistinct.Allows(j, i.Known()) && !M.Allows(j, i.Known()) {
			return false
		}
		// Larger bound allows more.
		if MiDistinct(1).Allows(j, i.Known()) && !MiDistinct(2).Allows(j, i.Known()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ClassSampler output is always allowed by the class.
func TestClassSamplerAlwaysAllowed(t *testing.T) {
	base := func(rng *rand.Rand) (*fact.Instance, *fact.Instance) {
		i := generate.RandomGraph(rng, "v", 4, 4)
		pool := append(generate.Values("v", 4), generate.Values("w", 4)...)
		return i, generate.Random(rng, fact.GraphSchema(), pool, 5)
	}
	for _, c := range []Class{M, MDistinct, MDisjoint, MiDistinct(2), MiDisjoint(1)} {
		s := ClassSampler(c, base)
		rng := rand.New(rand.NewSource(73))
		for k := 0; k < 100; k++ {
			i, j := s(rng)
			if !c.Allows(j, i.Known()) {
				t.Fatalf("%v: sampler produced disallowed pair I=%v J=%v", c, i, j)
			}
		}
	}
}
