package transducer

import (
	"slices"
	"testing"

	"repro/internal/fact"
)

func TestNewNetwork(t *testing.T) {
	n, err := NewNetwork("n2", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if n[0] != "n1" || n[1] != "n2" {
		t.Errorf("network not sorted: %v", n)
	}
	if _, err := NewNetwork(); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := NewNetwork("a", "a"); err == nil {
		t.Error("duplicate node accepted")
	}
	if !slices.Contains(n, "n1") || slices.Contains(n, "zz") {
		t.Error("network membership misbehaves")
	}
}

func TestDist(t *testing.T) {
	net := MustNetwork("1", "2")
	input := fact.MustParseInstance(`E(a,b) E(c,d)`)
	p := PolicyFunc(func(f fact.Fact) []NodeID {
		if f.Arg(0) == "a" {
			return []NodeID{"1"}
		}
		return []NodeID{"1", "2"}
	})
	h := Dist(p, net, input)
	if !h["1"].Equal(input) {
		t.Errorf("node 1 fragment = %v", h["1"])
	}
	if !h["2"].Equal(fact.MustParseInstance(`E(c,d)`)) {
		t.Errorf("node 2 fragment = %v", h["2"])
	}
}

// Example 4.1 from the paper: the domain-guided policy P2 with
// α(odd) = {1}, α(even) = {2} replicates E(3,4) to both nodes.
func TestExample41DomainGuided(t *testing.T) {
	net := MustNetwork("1", "2")
	odd := func(v fact.Value) bool {
		last := v[len(v)-1]
		return (last-'0')%2 == 1
	}
	alpha := AssignFunc(func(a fact.Value) []NodeID {
		if odd(a) {
			return []NodeID{"1"}
		}
		return []NodeID{"2"}
	})
	p := DomainGuided(alpha)
	input := fact.MustParseInstance(`E(1,3) E(3,4) E(4,6)`)
	h := Dist(p, net, input)
	if !h["1"].Equal(fact.MustParseInstance(`E(1,3) E(3,4)`)) {
		t.Errorf("node 1 = %v", h["1"])
	}
	if !h["2"].Equal(fact.MustParseInstance(`E(3,4) E(4,6)`)) {
		t.Errorf("node 2 = %v", h["2"])
	}

	// P2 is domain-guided by construction; the checker must agree.
	sigma := fact.GraphSchema()
	vals := []fact.Value{"1", "3", "4", "6"}
	if !IsDomainGuidedOn(p, sigma, vals) {
		t.Error("DomainGuided policy failed the domain-guided check")
	}

	// The first-attribute policy P1 of Example 4.1 is NOT
	// domain-guided: neither node gets all facts containing 4.
	p1 := PolicyFunc(func(f fact.Fact) []NodeID {
		if odd(f.Arg(0)) {
			return []NodeID{"1"}
		}
		return []NodeID{"2"}
	})
	if IsDomainGuidedOn(p1, sigma, vals) {
		t.Error("first-attribute policy wrongly classified as domain-guided")
	}
}

func TestPolicies(t *testing.T) {
	net := MustNetwork("a", "b", "c")
	f := fact.New("E", "x", "y")
	for _, p := range []Policy{HashPolicy(net), FirstAttrPolicy(net), DomainGuided(HashAssignment(net))} {
		nodes := p.Nodes(f)
		if len(nodes) == 0 {
			t.Error("policy returned empty node set")
		}
		for _, x := range nodes {
			if !slices.Contains(net, x) {
				t.Errorf("policy returned foreign node %s", x)
			}
		}
		// Deterministic.
		again := p.Nodes(f)
		if len(again) != len(nodes) {
			t.Error("policy nondeterministic")
		}
	}
	if got := AllToNode("b").Nodes(f); len(got) != 1 || got[0] != "b" {
		t.Errorf("AllToNode = %v", got)
	}
	if got := ReplicateAll(net).Nodes(f); len(got) != 3 {
		t.Errorf("ReplicateAll = %v", got)
	}
}

func TestGuidedPolicyRespectsAssignment(t *testing.T) {
	net := MustNetwork("a", "b")
	alpha := HashAssignment(net)
	gp := &GuidedPolicy{Alpha: alpha, Policy: DomainGuided(alpha)}
	f := fact.New("E", "u", "v")
	want := make(map[NodeID]bool)
	for _, x := range gp.Alpha.Assign("u") {
		want[x] = true
	}
	for _, x := range gp.Alpha.Assign("v") {
		want[x] = true
	}
	got := gp.Nodes(f)
	if len(got) != len(want) {
		t.Errorf("guided policy nodes = %v, want union of assignments %v", got, want)
	}
	for _, x := range got {
		if !want[x] {
			t.Errorf("unexpected node %s", x)
		}
	}
}

func TestSchemaValidate(t *testing.T) {
	ok := Schema{
		In:  fact.MustSchema(map[string]int{"E": 2}),
		Out: fact.MustSchema(map[string]int{"O": 2}),
		Msg: fact.MustSchema(map[string]int{"F": 2}),
		Mem: fact.MustSchema(map[string]int{"Seen": 2}),
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	dup := ok
	dup.Out = fact.MustSchema(map[string]int{"E": 2})
	if err := dup.Validate(); err == nil {
		t.Error("overlapping schemas accepted")
	}
	reserved := ok
	reserved.Mem = fact.MustSchema(map[string]int{"MyAdom": 1})
	if err := reserved.Validate(); err == nil {
		t.Error("reserved system name accepted")
	}
	reservedPolicy := ok
	reservedPolicy.Msg = fact.MustSchema(map[string]int{"Policy_E": 2})
	if err := reservedPolicy.Validate(); err == nil {
		t.Error("Policy_ prefix accepted")
	}
}
