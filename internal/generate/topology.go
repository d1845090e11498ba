package generate

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fact"
)

// This file is the seeded topology catalog for the event-driven
// network simulator (internal/netsim): deterministic generators for
// the communication graphs the large-network scenarios run on —
// rings, stars, trees, power-law graphs and partitioned WANs at
// 10^2–10^4 nodes. A Topology fixes three things the simulator
// consumes: the node set (zero-padded ids, so lexicographic network
// order equals index order), the undirected adjacency (neighbor
// routing), and a latency/cluster structure (WAN inter-cluster hops,
// topology-aware partition cuts for fault plans).

// TopoKind enumerates the catalog.
type TopoKind int

const (
	// TopoRing is a cycle: node i connects to i±1 (mod n).
	TopoRing TopoKind = iota
	// TopoStar is a hub and n-1 leaves.
	TopoStar
	// TopoTree is a complete binary tree.
	TopoTree
	// TopoPowerLaw is a Barabási–Albert preferential-attachment graph
	// (each new node attaches to 2 existing nodes chosen proportional
	// to degree).
	TopoPowerLaw
	// TopoWAN is a partitioned wide-area network: clusters of nodes
	// (ring plus seeded chords inside each cluster), bridged into a
	// ring of clusters, with higher inter-cluster latency.
	TopoWAN
)

// String names the kind in the form ParseTopoKind accepts.
func (k TopoKind) String() string {
	switch k {
	case TopoRing:
		return "ring"
	case TopoStar:
		return "star"
	case TopoTree:
		return "tree"
	case TopoPowerLaw:
		return "powerlaw"
	case TopoWAN:
		return "wan"
	default:
		return fmt.Sprintf("topology(%d)", int(k))
	}
}

// ParseTopoKind parses a topology name (the -topology CLI flag).
func ParseTopoKind(s string) (TopoKind, error) {
	switch s {
	case "ring":
		return TopoRing, nil
	case "star":
		return TopoStar, nil
	case "tree":
		return TopoTree, nil
	case "powerlaw":
		return TopoPowerLaw, nil
	case "wan":
		return TopoWAN, nil
	default:
		return 0, fmt.Errorf("generate: unknown topology %q (want ring|star|tree|powerlaw|wan)", s)
	}
}

// WANInterLatency is the logical-time cost of an edge crossing WAN
// clusters; every other hop costs 1.
const WANInterLatency = 4

// Topology is one generated communication graph. Instances are
// immutable after NewTopology.
type Topology struct {
	Kind TopoKind
	// Seed is the generator seed (ignored by the deterministic kinds).
	Seed int64

	nodes    []fact.Value // sorted ascending; index == network order
	adj      [][]int32    // undirected adjacency, neighbor lists sorted
	cluster  []int32      // cluster id per node (all 0 outside TopoWAN)
	clusters int
}

// NewTopology generates the topology of the given kind over n nodes.
// The same (kind, n, seed) always yields the same graph.
func NewTopology(kind TopoKind, n int, seed int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("generate: topology needs at least 2 nodes, got %d", n)
	}
	t := &Topology{Kind: kind, Seed: seed, adj: make([][]int32, n), cluster: make([]int32, n), clusters: 1}
	// Zero-padded ids: "n001".."n100" sort lexicographically in index
	// order, so transducer.NewNetwork (which sorts) preserves it.
	width := len(fmt.Sprint(n))
	t.nodes = make([]fact.Value, n)
	for i := 0; i < n; i++ {
		t.nodes[i] = fact.Value(fmt.Sprintf("n%0*d", width, i+1))
	}
	switch kind {
	case TopoRing:
		for i := 0; i < n; i++ {
			t.edge(i, (i+1)%n)
		}
	case TopoStar:
		for i := 1; i < n; i++ {
			t.edge(0, i)
		}
	case TopoTree:
		for i := 1; i < n; i++ {
			t.edge(i, (i-1)/2)
		}
	case TopoPowerLaw:
		t.powerLaw(n, seed)
	case TopoWAN:
		t.wan(n, seed)
	default:
		return nil, fmt.Errorf("generate: unknown topology kind %v", kind)
	}
	for i := range t.adj {
		sort.Slice(t.adj[i], func(a, b int) bool { return t.adj[i][a] < t.adj[i][b] })
	}
	return t, nil
}

// MustTopology is NewTopology, panicking on error (tests, benches).
func MustTopology(kind TopoKind, n int, seed int64) *Topology {
	t, err := NewTopology(kind, n, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// edge adds the undirected edge i—j (callers never add duplicates
// except powerLaw, which deduplicates itself).
func (t *Topology) edge(i, j int) {
	t.adj[i] = append(t.adj[i], int32(j))
	t.adj[j] = append(t.adj[j], int32(i))
}

// hasEdge reports whether i—j exists (pre-sort: linear scan).
func (t *Topology) hasEdge(i, j int) bool {
	for _, k := range t.adj[i] {
		if int(k) == j {
			return true
		}
	}
	return false
}

// powerLaw grows a Barabási–Albert graph: seed triangle, then each
// new node attaches to m=2 distinct existing nodes sampled
// proportional to degree (the classic repeated-endpoint trick: a
// uniform draw from the list of all edge endpoints is a
// degree-proportional draw from the nodes).
func (t *Topology) powerLaw(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	endpoints := make([]int32, 0, 4*n)
	t.edge(0, 1)
	endpoints = append(endpoints, 0, 1)
	if n > 2 {
		t.edge(1, 2)
		t.edge(2, 0)
		endpoints = append(endpoints, 1, 2, 2, 0)
	}
	const m = 2
	for i := 3; i < n; i++ {
		attached := 0
		for tries := 0; attached < m && tries < 32; tries++ {
			j := int(endpoints[rng.Intn(len(endpoints))])
			if j == i || t.hasEdge(i, j) {
				continue
			}
			t.edge(i, j)
			endpoints = append(endpoints, int32(i), int32(j))
			attached++
		}
		if attached == 0 {
			// Degenerate fallback keeps the graph connected.
			t.edge(i, i-1)
			endpoints = append(endpoints, int32(i), int32(i-1))
		}
	}
}

// wan partitions n nodes into clusters (ring inside each cluster plus
// a few seeded chords) and bridges consecutive clusters into a ring of
// clusters. Inter-cluster edges cost WANInterLatency.
func (t *Topology) wan(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	k := n / 32
	if k < 2 {
		k = 2
	}
	if k > 16 {
		k = 16
	}
	t.clusters = k
	bounds := make([]int, k+1)
	for c := 0; c <= k; c++ {
		bounds[c] = c * n / k
	}
	for c := 0; c < k; c++ {
		lo, hi := bounds[c], bounds[c+1]
		size := hi - lo
		for i := lo; i < hi; i++ {
			t.cluster[i] = int32(c)
			if size > 1 {
				t.edge(i, lo+(i-lo+1)%size)
			}
		}
		// A few chords make the cluster more than a fragile ring.
		for x := 0; x < size/8; x++ {
			i, j := lo+rng.Intn(size), lo+rng.Intn(size)
			if i != j && !t.hasEdge(i, j) {
				t.edge(i, j)
			}
		}
	}
	// Bridge consecutive clusters (ring of clusters) through seeded
	// gateway nodes.
	for c := 0; c < k; c++ {
		d := (c + 1) % k
		i := bounds[c] + rng.Intn(bounds[c+1]-bounds[c])
		j := bounds[d] + rng.Intn(bounds[d+1]-bounds[d])
		if !t.hasEdge(i, j) {
			t.edge(i, j)
		}
	}
}

// Len returns the number of nodes.
func (t *Topology) Len() int { return len(t.nodes) }

// Nodes returns a copy of the node ids, sorted ascending (the network
// order).
func (t *Topology) Nodes() []fact.Value { return append([]fact.Value(nil), t.nodes...) }

// Node returns the id of node i.
func (t *Topology) Node(i int) fact.Value { return t.nodes[i] }

// Index returns the index of node id v, or -1.
func (t *Topology) Index(v fact.Value) int {
	i := sort.Search(len(t.nodes), func(k int) bool { return t.nodes[k] >= v })
	if i < len(t.nodes) && t.nodes[i] == v {
		return i
	}
	return -1
}

// Neighbors returns node i's neighbor indices, sorted. The slice is
// shared — callers must not mutate it.
func (t *Topology) Neighbors(i int) []int32 { return t.adj[i] }

// NumEdges returns the number of undirected edges.
func (t *Topology) NumEdges() int {
	total := 0
	for _, a := range t.adj {
		total += len(a)
	}
	return total / 2
}

// Clusters returns the number of WAN clusters (1 outside TopoWAN).
func (t *Topology) Clusters() int { return t.clusters }

// Cluster returns node i's cluster id.
func (t *Topology) Cluster(i int) int { return int(t.cluster[i]) }

// Latency returns the logical-time cost of delivering a message from
// node i to node j: 1 inside a cluster, WANInterLatency across WAN
// clusters.
func (t *Topology) Latency(i, j int) int {
	if t.clusters > 1 && t.cluster[i] != t.cluster[j] {
		return WANInterLatency
	}
	return 1
}

// edgeInstance renders the topology's edges as facts rel(u, v) — one
// fact per undirected edge, in canonical low-index→high-index
// direction. This gives every topology a ready-made graph workload
// over its own node ids.
func (t *Topology) edgeInstance(rel string) *fact.Instance {
	in := fact.NewInstance()
	for i, adj := range t.adj {
		for _, j := range adj {
			if i < int(j) {
				in.Add(fact.New(rel, t.nodes[i], t.nodes[j]))
			}
		}
	}
	return in
}

// Cut returns a seeded topology-aware partition group: on a WAN one
// whole cluster (the partitions that actually happen to WANs); on
// every other kind a contiguous index block of half the nodes. The
// group is returned in node-id order and is always a strict non-empty
// subset, so it is directly usable as a transducer.Partition group.
func (t *Topology) Cut(seed int64) []fact.Value {
	n := len(t.nodes)
	var members []fact.Value
	if t.clusters > 1 {
		c := int32(uint64(seed) % uint64(t.clusters))
		for i, cl := range t.cluster {
			if cl == c {
				members = append(members, t.nodes[i])
			}
		}
	} else {
		size := n / 2
		if size == 0 {
			size = 1
		}
		off := int(uint64(seed) % uint64(n))
		for k := 0; k < size; k++ {
			members = append(members, t.nodes[(off+k)%n])
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return members
}
