package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fact"
)

// randomGraph builds a random E-instance over n values named
// <prefix>0..<prefix>(n-1) with m random edges — the same generator
// shape the fact package's component tests use.
func randomGraph(rng *rand.Rand, n, m int, prefix string) *fact.Instance {
	i := fact.NewInstance()
	vals := make([]fact.Value, n)
	for k := range vals {
		vals[k] = fact.Value(fmt.Sprintf("%s%d", prefix, k))
	}
	for k := 0; k < m; k++ {
		i.Add(fact.New("E", vals[rng.Intn(n)], vals[rng.Intn(n)]))
	}
	return i
}

// TestHashShardStable pins hash placement as a seed-free pure
// function: the same key always lands on the same shard, in this
// process and every other one (golden values), and the assignment is
// not degenerate.
func TestHashShardStable(t *testing.T) {
	used := make(map[int]bool)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("E(k%d,k%d)", i, i+1)
		s := hashShard(key, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("hashShard(%q, 4) = %d out of range", key, s)
		}
		if s != hashShard(key, 4) {
			t.Fatalf("hashShard(%q, 4) unstable", key)
		}
		used[s] = true
	}
	if len(used) != 4 {
		t.Errorf("256 keys over 4 shards used only %d shards", len(used))
	}
	// Golden pins: FNV-64a of these exact bytes. If these move, every
	// deployed placement moves — that is a wire-format break.
	for _, g := range []struct {
		key    string
		shards int
		want   int
	}{
		{"", 4, 1},
		{"E(a,b)", 4, 0},
		{"a", 4, 0},
	} {
		if got := hashShard(g.key, g.shards); got != g.want {
			t.Errorf("hashShard(%q, %d) = %d, want %d", g.key, g.shards, got, g.want)
		}
	}
}

// TestPlaceInstanceAgreesWithComponents checks the defining property
// of component placement on random graphs: facts in the same co(I)
// component share a shard, every fact is placed, and the shard is the
// hash of the component's minimum active-domain value.
func TestPlaceInstanceAgreesWithComponents(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			inst := randomGraph(rng, 6, 5, "v")
			shards := 2 + rng.Intn(3)
			placed := PlaceInstance(inst, shards)
			if len(placed) != inst.Len() {
				t.Fatalf("seed %d trial %d: placed %d of %d facts", seed, trial, len(placed), inst.Len())
			}
			for _, comp := range fact.Components(inst) {
				min := comp.ADom().Sorted()[0]
				want := hashShard(string(min), shards)
				comp.Each(func(f fact.Fact) bool {
					if placed[f.Key()] != want {
						t.Fatalf("seed %d trial %d: %v placed on %d, component min %s hashes to %d",
							seed, trial, f, placed[f.Key()], min, want)
					}
					return true
				})
			}
		}
	}
}

// TestPlacementUnionProperty pins the Theorem 5.3 shape: for domain
// disjoint instances I and J, placing I ⊎ J restricted to I equals
// placing I alone. Placement is per-component and a component never
// spans disjoint domains, so adding J cannot move any fact of I —
// which is why partitioned shards can answer connected monotone
// queries independently.
func TestPlacementUnionProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			left := randomGraph(rng, 5, 4, "l")
			right := randomGraph(rng, 5, 4, "r")
			both := fact.NewInstance()
			left.Each(func(f fact.Fact) bool { both.Add(f); return true })
			right.Each(func(f fact.Fact) bool { both.Add(f); return true })

			shards := 2 + rng.Intn(3)
			pl, pb := PlaceInstance(left, shards), PlaceInstance(both, shards)
			left.Each(func(f fact.Fact) bool {
				if pl[f.Key()] != pb[f.Key()] {
					t.Fatalf("seed %d trial %d: %v moved from %d to %d when disjoint J was added",
						seed, trial, f, pl[f.Key()], pb[f.Key()])
				}
				return true
			})
		}
	}
}

func TestParsePlacement(t *testing.T) {
	for _, s := range []string{"hash", "component"} {
		k, err := ParsePlacement(s)
		if err != nil || string(k) != s {
			t.Errorf("ParsePlacement(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParsePlacement("roundrobin"); err == nil {
		t.Error("unknown placement must be rejected")
	}
}
