package transducer

import (
	"math/rand"
	"testing"

	"repro/internal/fact"
)

func TestMultisetCounts(t *testing.T) {
	m := newMultiset()
	f := fact.New("F", "a")
	g := fact.New("F", "b")
	m.add(f, 1)
	m.add(f, 2)
	m.add(g, 1)
	if m.size() != 4 {
		t.Errorf("size = %d, want 4", m.size())
	}
	set := fact.NewInstance()
	delivered := m.takeAll(set)
	if delivered != 4 {
		t.Errorf("delivered = %d, want 4", delivered)
	}
	if set.Len() != 2 {
		t.Errorf("collapsed set size = %d, want 2", set.Len())
	}
	if !m.empty() {
		t.Error("buffer not empty after takeAll")
	}
}

func TestMultisetTakeRandomConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := newMultiset()
		total := 0
		for k := 0; k < 5; k++ {
			n := 1 + rng.Intn(3)
			m.add(fact.New("F", fact.Value(rune('a'+k))), n)
			total += n
		}
		delivered := 0
		for !m.empty() {
			delivered += m.takeRandom(rng, fact.NewInstance())
		}
		if delivered != total {
			t.Fatalf("delivered %d of %d messages", delivered, total)
		}
	}
}

// The same message sent in two different transitions accumulates in
// the buffer as a multiset (the Section 4.1.3 motivation).
func TestDuplicateSendsAccumulate(t *testing.T) {
	// A transducer that sends the same fact on every transition.
	spam := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Msg: fact.MustSchema(map[string]int{"F": 1}),
		},
		Snd: func(d *fact.Instance) (*fact.Instance, error) {
			return fact.MustParseInstance(`F(ping)`), nil
		},
	}
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, spam, AllToNode("n1"), Original, fact.MustParseInstance(`E(a,b)`))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := sim.Heartbeat("n1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := sim.Buffered("n2"); got != 3 {
		t.Errorf("n2 buffered %d copies, want 3", got)
	}
	// Delivering all consumes all three copies but the set passed to
	// the transducer collapses them to one fact.
	if _, err := sim.Deliver("n2"); err != nil {
		t.Fatal(err)
	}
	if sim.Metrics.MessagesDelivered != 3 {
		t.Errorf("MessagesDelivered = %d, want 3", sim.Metrics.MessagesDelivered)
	}
}

// Table-driven edge cases for the multiset buffer.
func TestMultisetEdgeCases(t *testing.T) {
	type add struct {
		f fact.Fact
		n int
	}
	cases := []struct {
		name          string
		adds          []add
		wantSize      int
		wantSetLen    int
		wantDelivered int
	}{
		{"empty buffer", nil, 0, 0, 0},
		{"single fact count 1", []add{{fact.New("F", "a"), 1}}, 1, 1, 1},
		{"single fact count 3", []add{{fact.New("F", "a"), 3}}, 3, 1, 3},
		{"distinct facts", []add{{fact.New("F", "a"), 1}, {fact.New("F", "b"), 1}}, 2, 2, 2},
		{"mixed counts accumulate", []add{
			{fact.New("F", "a"), 2}, {fact.New("F", "a"), 3}, {fact.New("F", "b"), 1},
		}, 6, 2, 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newMultiset()
			for _, a := range c.adds {
				m.add(a.f, a.n)
			}
			if m.size() != c.wantSize {
				t.Errorf("size = %d, want %d", m.size(), c.wantSize)
			}
			if m.empty() != (c.wantSize == 0) {
				t.Errorf("empty = %v with size %d", m.empty(), c.wantSize)
			}
			set := fact.NewInstance()
			delivered := m.takeAll(set)
			if set.Len() != c.wantSetLen || delivered != c.wantDelivered {
				t.Errorf("takeAll = (%d facts, %d delivered), want (%d, %d)",
					set.Len(), delivered, c.wantSetLen, c.wantDelivered)
			}
			if !m.empty() || m.size() != 0 {
				t.Errorf("buffer not drained: size %d", m.size())
			}
			// takeAll on the now-empty buffer is a no-op.
			set.Reset()
			if delivered = m.takeAll(set); set.Len() != 0 || delivered != 0 {
				t.Errorf("takeAll on empty = (%d, %d)", set.Len(), delivered)
			}
		})
	}
}

// takeRandom drains in a stable order: with equal seeds, repeated
// draws remove the same facts in the same sequence every time.
func TestMultisetTakeRandomDrainingOrderStable(t *testing.T) {
	build := func() *multiset {
		m := newMultiset()
		for k := 0; k < 8; k++ {
			m.add(fact.New("F", fact.Value(rune('a'+k))), 1+k%3)
		}
		return m
	}
	drain := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		m := build()
		var order []string
		for !m.empty() {
			set := fact.NewInstance()
			m.takeRandom(rng, set)
			order = append(order, set.String())
		}
		return order
	}
	a, b := drain(5), drain(5)
	if len(a) != len(b) {
		t.Fatalf("draining lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	// takeRandom on an empty buffer returns an empty set and no count.
	m := newMultiset()
	set := fact.NewInstance()
	if n := m.takeRandom(rand.New(rand.NewSource(1)), set); set.Len() != 0 || n != 0 {
		t.Errorf("takeRandom on empty = (%d, %d)", set.Len(), n)
	}
}

// Example 4.2 of the paper: the system facts exposed to node 1 under
// the first-attribute policy P1 with I = {E(1,3), E(3,4), E(4,6)}.
func TestExample42SystemFacts(t *testing.T) {
	net := MustNetwork("1", "2")
	odd := func(v fact.Value) bool { return (v[len(v)-1]-'0')%2 == 1 }
	p1 := PolicyFunc(func(f fact.Fact) []NodeID {
		if odd(f.Arg(0)) {
			return []NodeID{"1"}
		}
		return []NodeID{"2"}
	})
	input := fact.MustParseInstance(`E(1,3) E(3,4) E(4,6)`)

	// A transducer that records what it sees.
	spy := &Transducer{
		Schema: Schema{
			In:  fact.MustSchema(map[string]int{"E": 2}),
			Out: fact.MustSchema(map[string]int{"SawAdom": 1, "SawPol": 2}),
		},
		Out: func(d *fact.Instance) (*fact.Instance, error) {
			out := fact.NewInstance()
			if !d.Has(fact.New(RelId, "1")) {
				return out, nil // only observe node 1
			}
			for _, f := range d.Rel(RelMyAdom) {
				out.Add(fact.New("SawAdom", f.Arg(0)))
			}
			for _, f := range d.Rel(PolicyRel("E")) {
				out.Add(fact.New("SawPol", f.Arg(0), f.Arg(1)))
			}
			return out, nil
		},
	}
	sim, err := NewSimulation(net, spy, p1, PolicyAware, input)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Heartbeat("1"); err != nil {
		t.Fatal(err)
	}
	out := sim.Output()

	// MyAdom at node 1: node ids {1, 2} plus local values {3, 4}
	// (value 6 has not been received).
	wantAdom := fact.NewValueSet("1", "2", "3", "4")
	for v := range wantAdom {
		if !out.Has(fact.New("SawAdom", v)) {
			t.Errorf("MyAdom(%s) missing", v)
		}
	}
	if out.Has(fact.New("SawAdom", "6")) {
		t.Error("node 1 should not know value 6 yet")
	}
	// policyE(a, b) for odd a over the known domain — e.g. (1, 4) and
	// (3, 2) are shown; (4, 1) is not (node 2's responsibility).
	if !out.Has(fact.New("SawPol", "1", "4")) || !out.Has(fact.New("SawPol", "3", "2")) {
		t.Errorf("expected policyE facts for odd first attributes: %v", out.Rel("SawPol"))
	}
	if out.Has(fact.New("SawPol", "4", "1")) {
		t.Error("policyE(4,1) should not be shown to node 1")
	}
}
