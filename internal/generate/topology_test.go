package generate

import (
	"testing"

	"repro/internal/fact"
)

// reachable BFS-counts the nodes reachable from 0 — every generated
// topology must be connected or the simulator's convergence claims die.
func reachable(t *Topology) int {
	seen := make([]bool, t.Len())
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range t.Neighbors(i) {
			if !seen[j] {
				seen[j] = true
				count++
				queue = append(queue, int(j))
			}
		}
	}
	return count
}

func TestTopologyShapes(t *testing.T) {
	const n = 64
	for _, kind := range []TopoKind{TopoRing, TopoStar, TopoTree, TopoPowerLaw, TopoWAN} {
		topo := MustTopology(kind, n, 7)
		if topo.Len() != n {
			t.Fatalf("%v: Len=%d", kind, topo.Len())
		}
		if got := reachable(topo); got != n {
			t.Errorf("%v: only %d of %d nodes reachable", kind, got, n)
		}
		for i := 0; i < n; i++ {
			if len(topo.Neighbors(i)) == 0 {
				t.Errorf("%v: node %d isolated", kind, i)
			}
		}
	}

	ring := MustTopology(TopoRing, n, 0)
	for i := 0; i < n; i++ {
		if len(ring.Neighbors(i)) != 2 {
			t.Errorf("ring node %d degree %d, want 2", i, len(ring.Neighbors(i)))
		}
	}
	star := MustTopology(TopoStar, n, 0)
	if len(star.Neighbors(0)) != n-1 {
		t.Errorf("star hub degree %d, want %d", len(star.Neighbors(0)), n-1)
	}
	for i := 1; i < n; i++ {
		if len(star.Neighbors(i)) != 1 {
			t.Errorf("star leaf %d degree %d, want 1", i, len(star.Neighbors(i)))
		}
	}
	tree := MustTopology(TopoTree, n, 0)
	if tree.NumEdges() != n-1 {
		t.Errorf("tree has %d edges, want %d", tree.NumEdges(), n-1)
	}
	pl := MustTopology(TopoPowerLaw, 256, 11)
	maxDeg := 0
	for i := 0; i < pl.Len(); i++ {
		if d := len(pl.Neighbors(i)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8 {
		t.Errorf("power-law max degree %d suspiciously flat", maxDeg)
	}
}

func TestTopologyNodeOrder(t *testing.T) {
	topo := MustTopology(TopoRing, 100, 0)
	nodes := topo.Nodes()
	if nodes[0] != "n001" || nodes[99] != "n100" {
		t.Fatalf("zero-padded ids broken: %s .. %s", nodes[0], nodes[99])
	}
	for i := 1; i < len(nodes); i++ {
		if !(nodes[i-1] < nodes[i]) {
			t.Fatalf("node ids not sorted at %d: %s >= %s", i, nodes[i-1], nodes[i])
		}
	}
	for i, x := range nodes {
		if topo.Index(x) != i {
			t.Errorf("Index(%s)=%d, want %d", x, topo.Index(x), i)
		}
	}
	if topo.Index("zz") != -1 {
		t.Error("Index of unknown id should be -1")
	}
}

func TestTopologyDeterminism(t *testing.T) {
	for _, kind := range []TopoKind{TopoPowerLaw, TopoWAN} {
		a := MustTopology(kind, 200, 42)
		b := MustTopology(kind, 200, 42)
		c := MustTopology(kind, 200, 43)
		same, diff := true, false
		for i := 0; i < 200; i++ {
			an, bn, cn := a.Neighbors(i), b.Neighbors(i), c.Neighbors(i)
			if len(an) != len(bn) {
				same = false
				break
			}
			for k := range an {
				if an[k] != bn[k] {
					same = false
				}
			}
			if len(an) != len(cn) {
				diff = true
			} else {
				for k := range an {
					if an[k] != cn[k] {
						diff = true
					}
				}
			}
		}
		if !same {
			t.Errorf("%v: same seed produced different graphs", kind)
		}
		if !diff {
			t.Errorf("%v: different seeds produced identical graphs", kind)
		}
	}
}

func TestWANClustersAndLatency(t *testing.T) {
	topo := MustTopology(TopoWAN, 256, 3)
	if topo.Clusters() < 2 {
		t.Fatalf("WAN has %d clusters, want >= 2", topo.Clusters())
	}
	intra, inter := false, false
	for i := 0; i < topo.Len() && !(intra && inter); i++ {
		for _, j := range topo.Neighbors(i) {
			if topo.Cluster(i) == topo.Cluster(int(j)) {
				if topo.Latency(i, int(j)) != 1 {
					t.Fatalf("intra-cluster latency %d, want 1", topo.Latency(i, int(j)))
				}
				intra = true
			} else {
				if topo.Latency(i, int(j)) != WANInterLatency {
					t.Fatalf("inter-cluster latency %d, want %d", topo.Latency(i, int(j)), WANInterLatency)
				}
				inter = true
			}
		}
	}
	if !intra || !inter {
		t.Fatalf("WAN missing edge kinds: intra=%v inter=%v", intra, inter)
	}
	ring := MustTopology(TopoRing, 16, 0)
	if ring.Clusters() != 1 || ring.Latency(0, 8) != 1 {
		t.Error("non-WAN topologies must be single-cluster with unit latency")
	}
}

func TestTopologyCut(t *testing.T) {
	for _, kind := range []TopoKind{TopoRing, TopoPowerLaw, TopoWAN} {
		topo := MustTopology(kind, 128, 5)
		for seed := int64(0); seed < 8; seed++ {
			cut := topo.Cut(seed)
			if len(cut) == 0 || len(cut) >= topo.Len() {
				t.Fatalf("%v: cut size %d not a strict nonempty subset of %d", kind, len(cut), topo.Len())
			}
			for i := 1; i < len(cut); i++ {
				if !(cut[i-1] < cut[i]) {
					t.Fatalf("%v: cut not sorted", kind)
				}
			}
		}
		a, b := topo.Cut(9), topo.Cut(9)
		if len(a) != len(b) {
			t.Fatalf("%v: Cut not deterministic", kind)
		}
	}
	wan := MustTopology(TopoWAN, 128, 5)
	cut := wan.Cut(2)
	cl := wan.Cluster(wan.Index(cut[0]))
	for _, x := range cut {
		if wan.Cluster(wan.Index(x)) != cl {
			t.Fatal("WAN cut spans clusters")
		}
	}
}

func TestEdgeInstance(t *testing.T) {
	topo := MustTopology(TopoRing, 8, 0)
	in := topo.edgeInstance("E")
	if in.Len() != topo.NumEdges() {
		t.Fatalf("EdgeInstance has %d facts, want %d", in.Len(), topo.NumEdges())
	}
	if !in.Has(fact.New("E", "n1", "n2")) {
		t.Error("missing ring edge E(n1,n2)")
	}
}

func TestParseTopoKindRoundTrip(t *testing.T) {
	for _, kind := range []TopoKind{TopoRing, TopoStar, TopoTree, TopoPowerLaw, TopoWAN} {
		got, err := ParseTopoKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("round trip %v: got %v, err %v", kind, got, err)
		}
	}
	if _, err := ParseTopoKind("mesh"); err == nil {
		t.Error("ParseTopoKind accepted an unknown name")
	}
	if _, err := NewTopology(TopoRing, 1, 0); err == nil {
		t.Error("NewTopology accepted n=1")
	}
	if _, err := NewTopology(TopoKind(99), 4, 0); err == nil {
		t.Error("NewTopology accepted an unknown kind")
	}
}
