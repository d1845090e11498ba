package cluster

import (
	"fmt"
	"hash/fnv"

	"repro/internal/fact"
)

// PlacementKind names a placement strategy.
type PlacementKind string

const (
	// PlaceHash assigns each fact to a shard by hashing its canonical
	// text — a pure function of the fact, so placement is stable
	// across restarts and identical on every router (seed-free). Hash
	// placement runs the cluster in replicated mode: every delta is
	// streamed to every shard, placement only picks the home shard
	// that acknowledges the write.
	PlaceHash PlacementKind = "hash"
	// PlaceComponent colocates each co(I) component (Section 5.1) on
	// one shard, chosen by hashing the component's minimum
	// active-domain value. Component placement runs the cluster in
	// partitioned mode when the program allows it (connected monotone
	// rules): deltas stay home, reads scatter/gather.
	PlaceComponent PlacementKind = "component"
)

// ParsePlacement parses a -placement flag value.
func ParsePlacement(s string) (PlacementKind, error) {
	switch PlacementKind(s) {
	case PlaceHash, PlaceComponent:
		return PlacementKind(s), nil
	}
	return "", fmt.Errorf("cluster: unknown placement %q (want hash or component)", s)
}

// hashShard maps a string to a shard index — FNV-64a, the repo's
// standard seed-free deterministic hash (see transducer.FaultPlan).
func hashShard(key string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// rootShard returns the home shard of the component rooted at root:
// the hash of its minimum value, which the root is. A pure function of
// the component's content — placing I and placing I ⊎ J (domain
// disjoint) agree on I's facts, which is the Theorem 5.3 union property
// the placement tests pin — and a survivor's home never moves when it
// absorbs another component.
func rootShard(root fact.ID, shards int) int {
	return hashShard(string(fact.Symbol(root)), shards)
}

// PlaceInstance computes the component placement of a whole instance:
// co(I) through a fact.ComponentIndex, each component assigned by the
// hash of its minimum active-domain value. The returned map sends every
// fact's canonical Key to its shard.
func PlaceInstance(i *fact.Instance, shards int) map[string]int {
	x := fact.NewComponentIndex()
	i.Each(func(f fact.Fact) bool {
		x.Add(f, nil)
		return true
	})
	out := make(map[string]int, i.Len())
	i.Each(func(f fact.Fact) bool {
		out[f.Key()] = rootShard(x.Root(f.ArgIDs()[0]), shards)
		return true
	})
	return out
}
