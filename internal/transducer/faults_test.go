package transducer

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fact"
)

// conserved asserts the message-conservation invariant documented on
// Metrics: nothing the fault layer does may lose or invent messages.
func conserved(t *testing.T, sim *Simulation) {
	t.Helper()
	m := sim.Metrics
	got := m.MessagesDelivered + sim.TotalBuffered() + sim.totalHeld() + m.MessagesDropped
	if m.MessagesSent != got {
		t.Fatalf("conservation broken: sent %d != delivered %d + buffered %d + held %d + dropped %d",
			m.MessagesSent, m.MessagesDelivered, sim.TotalBuffered(), sim.totalHeld(), m.MessagesDropped)
	}
}

func TestFaultPlanDecisionsArePure(t *testing.T) {
	p := &FaultPlan{Seed: 42, DupProb: 0.5, DelayProb: 0.5, MaxDelay: 4}
	f := fact.New("F", "a", "b")
	for i := 0; i < 100; i++ {
		if p.ExtraCopies(3, "n1", "n2", f) != p.ExtraCopies(3, "n1", "n2", f) {
			t.Fatal("ExtraCopies is not a pure function of its arguments")
		}
		if p.HoldFor(3, "n1", "n2", f) != p.HoldFor(3, "n1", "n2", f) {
			t.Fatal("HoldFor is not a pure function of its arguments")
		}
	}
	// Different seeds must actually change decisions somewhere.
	q := &FaultPlan{Seed: 43, DupProb: 0.5, DelayProb: 0.5, MaxDelay: 4}
	same := true
	for clock := 0; clock < 50 && same; clock++ {
		same = p.ExtraCopies(clock, "n1", "n2", f) == q.ExtraCopies(clock, "n1", "n2", f) &&
			p.HoldFor(clock, "n1", "n2", f) == q.HoldFor(clock, "n1", "n2", f)
	}
	if same {
		t.Error("seeds 42 and 43 agree on 50 decision points; seed is being ignored")
	}
}

func TestParseFaultPlanRoundTrip(t *testing.T) {
	specs := []string{
		"dup=0.2",
		"delay=0.25:6",
		"stall=n2@3-8",
		"crash=n3@10",
		"part=2-6:n1|n2",
		"dup=0.2,delay=0.25:6,stall=n2@3-8,crash=n3@10,part=2-6:n1|n2",
	}
	for _, spec := range specs {
		p, err := ParseFaultPlan(spec, 7)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("ParseFaultPlan(%q).String() = %q", spec, got)
		}
		again, err := ParseFaultPlan(p.String(), 7)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", p.String(), err)
		}
		if again.String() != p.String() {
			t.Errorf("round-trip drifted: %q vs %q", p.String(), again.String())
		}
	}
	empty, err := ParseFaultPlan("", 1)
	if err != nil || !empty.Empty() || empty.String() != "none" {
		t.Errorf("empty spec: plan %v, err %v", empty, err)
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"warp=0.5",
		"dup=lots",
		"delay=0.5",
		"delay=0.5:0",
		"stall=n1",
		"stall=n1@5",
		"stall=n1@8-3",
		"crash=n1",
		"crash=n1@zero",
		"part=3-9",
		"part=9-3:n1",
	} {
		if _, err := ParseFaultPlan(spec, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestRandomFaultPlanReproducible(t *testing.T) {
	net := MustNetwork("n1", "n2", "n3")
	cfg := DefaultFaultConfig()
	for seed := int64(0); seed < 50; seed++ {
		a := RandomFaultPlan(net, seed, cfg)
		b := RandomFaultPlan(net, seed, cfg)
		if a.String() != b.String() {
			t.Fatalf("seed %d: plans differ: %s vs %s", seed, a, b)
		}
		// Every partition must be a proper nonempty subset, or the cut
		// would hold nothing (or everything) back.
		for _, cut := range a.Partitions {
			if len(cut.Group) == 0 || len(cut.Group) == len(net) {
				t.Fatalf("seed %d: degenerate partition group %v", seed, cut.Group)
			}
		}
		if a.horizon() <= 0 {
			t.Fatalf("seed %d: plan with scheduled events has horizon %d", seed, a.horizon())
		}
	}
}

func TestFaultPlanHorizon(t *testing.T) {
	p, err := ParseFaultPlan("stall=n1@2-9,crash=n2@14,part=3-11:n1", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Latest event is the crash at 14; recovery takes one more tick.
	if got := p.horizon(); got != 15 {
		t.Errorf("horizon = %d, want 15", got)
	}
	var empty FaultPlan
	if empty.horizon() != 0 {
		t.Errorf("empty plan horizon = %d", empty.horizon())
	}
}

func TestStallSilencesNode(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("stall=n1@1-4", 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(plan)
	// Three stalled activations: no transitions, no messages.
	for i := 0; i < 3; i++ {
		changed, err := sim.Heartbeat("n1")
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatal("stalled activation reported a change")
		}
	}
	if sim.Metrics.StalledSteps != 3 || sim.Metrics.Transitions != 0 || sim.Metrics.MessagesSent != 0 {
		t.Errorf("stall bookkeeping: %+v", sim.Metrics)
	}
	// Past the window the node acts normally and the run still converges.
	out, err := sim.RunToQuiescence(20)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantO(graphIn)) {
		t.Errorf("output after stall = %v", out)
	}
	conserved(t, sim)
}

func TestDelayHoldsThenReleases(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(&FaultPlan{Seed: 2, DelayProb: 1.0, MaxDelay: 3})
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	// Every sent message is held, none buffered yet.
	if sim.totalHeld() != 3 || sim.Buffered("n2") != 0 {
		t.Fatalf("held %d, buffered %d after delayed send", sim.totalHeld(), sim.Buffered("n2"))
	}
	if sim.Metrics.MessagesDelayed != 3 {
		t.Errorf("MessagesDelayed = %d, want 3", sim.Metrics.MessagesDelayed)
	}
	conserved(t, sim)
	out, err := sim.RunToQuiescence(20)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantO(graphIn)) {
		t.Errorf("output = %v", out)
	}
	if sim.totalHeld() != 0 {
		t.Errorf("%d messages still held at quiescence", sim.totalHeld())
	}
	conserved(t, sim)
}

func TestDuplicationAccumulates(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(&FaultPlan{Seed: 2, DupProb: 1.0})
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	// Each of the 3 facts arrives twice.
	if sim.Buffered("n2") != 6 || sim.Metrics.MessagesDuplicated != 3 {
		t.Fatalf("buffered %d, duplicated %d", sim.Buffered("n2"), sim.Metrics.MessagesDuplicated)
	}
	conserved(t, sim)
	out, err := sim.RunToQuiescence(20)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantO(graphIn)) {
		t.Errorf("output = %v", out)
	}
	conserved(t, sim)
}

func TestPartitionHoldsCrossTraffic(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("part=1-5:n2", 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(plan)
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if sim.Buffered("n2") != 0 || sim.totalHeld() != 3 {
		t.Fatalf("partition leaked: buffered %d, held %d", sim.Buffered("n2"), sim.totalHeld())
	}
	out, err := sim.RunToQuiescence(20)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantO(graphIn)) {
		t.Errorf("output after heal = %v", out)
	}
	conserved(t, sim)
}

func TestCrashRestartRecovers(t *testing.T) {
	net := MustNetwork("n1", "n2")
	// All input at n1: its broadcast is in n2's history by the time the
	// crash hits, so recovery must retransmit it.
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("crash=n2@4", 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(plan)
	out, err := sim.RunToQuiescence(30)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(wantO(graphIn)) {
		t.Errorf("output after crash-restart = %v", out)
	}
	if sim.Metrics.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", sim.Metrics.Crashes)
	}
	if sim.Metrics.MessagesRetransmitted == 0 {
		t.Error("crash recovery retransmitted nothing")
	}
	conserved(t, sim)
}

func TestCrashDropsVolatileState(t *testing.T) {
	net := MustNetwork("n1", "n2")
	sim, err := NewSimulation(net, forwardTransducer(), AllToNode("n1"), Original, graphIn)
	if err != nil {
		t.Fatal(err)
	}
	// Let n2 learn everything, then crash it manually via a plan whose
	// crash fires on its next activation.
	if _, err := sim.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Deliver("n2"); err != nil {
		t.Fatal(err)
	}
	if sim.State("n2").Empty() {
		t.Fatal("n2 learned nothing to lose")
	}
	plan := &FaultPlan{Seed: 1, Crashes: []Crash{{Node: "n2", At: sim.Clock() + 1}}}
	sim.SetFaults(plan)
	if _, err := sim.Heartbeat("n2"); err != nil {
		t.Fatal(err)
	}
	if !sim.State("n2").Empty() {
		t.Errorf("crash kept volatile state: %v", sim.State("n2"))
	}
	// The local input fragment survives (it is empty under AllToNode n1,
	// so check on n1's side that local inputs are never touched).
	if !sim.nodes[sim.idx["n1"]].local.Equal(graphIn) {
		t.Error("crash of n2 disturbed n1's local input")
	}
	// Recovery rebroadcast refilled the buffer from n1's send log.
	if sim.Buffered("n2") == 0 {
		t.Error("recovery rebroadcast buffered nothing")
	}
	conserved(t, sim)
}

func TestFaultPlanStringNoSpec(t *testing.T) {
	var p FaultPlan
	if got := p.String(); got != "none" {
		t.Errorf("zero plan String = %q", got)
	}
	if !strings.Contains((&FaultPlan{DupProb: 0.5}).String(), "dup=0.5") {
		t.Error("dup missing from String")
	}
}

// roll's outputs are pinned: X1–X7 and every seeded faulty run depend
// on them. The values were recorded when roll hashed the fmt-formatted
// bytes of the seed, kind, clock, endpoints and Fact.Key(); building the
// same bytes any other way must reproduce them exactly.
func TestFaultRollsPinned(t *testing.T) {
	for k, c := range []struct {
		seed     int64
		kind     byte
		clock    int
		from, to NodeID
		f        fact.Fact
		want     float64
	}{
		{0, 'd', 0, "n1", "n2", fact.New("F", "a"), 0.7093502518922109},
		{1, 'd', 1, "n1", "n2", fact.New("E", "a", "b"), 0.6922321006576565},
		{1, 'h', 1, "n1", "n2", fact.New("E", "a", "b"), 0.7529225834583856},
		{1, 'l', 1, "n1", "n2", fact.New("E", "a", "b"), 0.940851115929954},
		{42, 'd', 3, "n2", "n1", fact.New("F", "a", "b"), 0.6533182461482322},
		{42, 'h', 17, "n012", "n013", fact.New("Xf_E", "v1", "v2"), 0.5505311012391029},
		{42, 'l', 17, "n012", "n013", fact.New("Xf_E", "v1", "v2"), 0.5190429999124684},
		{-7, 'd', 5, "n3", "n1", fact.New("T", "a", "b", "c"), 0.011035295139158352},
		{-7, 'h', 5, "n3", "n1", fact.New("T", "a", "b", "c"), 0.23519767759902843},
		{-7, 'l', 5, "n3", "n1", fact.New("T", "a", "b", "c"), 0.6023731581891909},
		{1 << 40, 'd', 12345, "router", "shard3", fact.New("E", "é", "日本"), 0.8487466236935604},
		{1 << 40, 'h', 12345, "router", "shard3", fact.New("E", "é", "日本"), 0.8481993532614458},
		{9, 'l', 99, "1", "2", fact.New("E", "é", "日本"), 0.40824210444880527},
		{-9223372036854775808, 'd', 2, "n1", "n2", fact.New("E", "1", "3"), 0.1837851964348981},
		{5, 'd', -1, "n1", "n2", fact.New("E", "1", "3"), 0.8250633353349593},
		{5, 'h', 1000000, "", "n2", fact.New("Ea", "x"), 0.5349270167349875},
		{5, 'l', 7, "n1", "", fact.New("E_1", "a b", "c,d"), 0.33198552198557907},
		{123456789, 'd', 31, "n7", "n8", fact.New("Fwd", "a", "b", "c", "d"), 0.6350148064794233},
		{123456789, 'h', 31, "n7", "n8", fact.New("Got", ""), 0.32392292191985395},
		{2, 'l', 4, "α", "β", fact.New("Ω", "ß", "ü", "ÿ"), 0.6790007504581834},
	} {
		p := &FaultPlan{Seed: c.seed}
		if got := roll(p.prefix(c.kind, c.clock, c.from, c.to), c.f.RelID(), c.f.ArgIDs()); got != c.want {
			t.Errorf("case %d: roll(%c, %d, %q, %q, %v) = %v, want %v", k, c.kind, c.clock, c.from, c.to, c.f, got, c.want)
		}
	}
	p, f := &FaultPlan{Seed: -7}, fact.New("T", "a", "b", "c")
	if n := testing.AllocsPerRun(100, func() { roll(p.prefix('d', 5, "n3", "n1"), f.RelID(), f.ArgIDs()) }); n != 0 {
		t.Errorf("roll allocates %v times, want 0", n)
	}
	l := p.link(5, "n3", "n1")
	if n := testing.AllocsPerRun(100, func() { l.holdFor(f.RelID(), f.ArgIDs()) }); n != 0 {
		t.Errorf("a link's roll allocates %v times, want 0", n)
	}
}

// TestIDAnswersMatchTheirDefinitions is the equivalence behind asking
// and rolling over ids. For random seeds, clocks, kinds, endpoints and
// facts of arity 0–3, a roll streamed from a link's prefix equals
// FNV-64a of the byte string roll documents, built and hashed by
// hash/fnv, and a link decides each copy and hold as that byte string
// does; and every built-in policy's answer through a Stepper's tuple
// buffer (Base.Responsible's ask) equals Nodes of a fact of its own,
// and HashPolicy's and DomainGuided's answers equal their definitions:
// FNV-32a of Fact.Key, and the sorted union of the values' nodes.
func TestIDAnswersMatchTheirDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	syms := []string{"", "a", "b", "E", "Xf_E", "n1", "n12", "é", "日本", "a b", "c,d"}
	sym := func() fact.ID { return fact.InternString(syms[rng.Intn(len(syms))]) }
	unit := func(b []byte) float64 {
		h := fnv.New64a()
		h.Write(b)
		return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	}
	for k := 0; k < 2000; k++ {
		p := &FaultPlan{Seed: rng.Int63() - rng.Int63(), DupProb: rng.Float64(), DelayProb: rng.Float64(), MaxDelay: 1 + rng.Intn(8)}
		kind, clock := byte(rng.Intn(256)), rng.Intn(1<<20)-rng.Intn(8)
		from, to := NodeID(syms[rng.Intn(len(syms))]), NodeID(syms[rng.Intn(len(syms))])
		rel, args := sym(), make([]fact.ID, rng.Intn(4))
		for i := range args {
			args[i] = sym()
		}
		key := []byte(fact.Symbol(rel))
		for _, a := range args {
			key = append(append(key, 0), fact.Symbol(a)...)
		}
		bytes := func(kind byte) []byte {
			b := append(fmt.Appendf(nil, "%d", p.Seed), 0, kind)
			b = append(fmt.Appendf(b, "%d", clock), 0)
			return append(fmt.Appendf(b, "%s\x00%s\x00", from, to), key...)
		}
		if got, want := roll(p.prefix(kind, clock, from, to), rel, args), unit(bytes(kind)); got != want {
			t.Fatalf("case %d: streamed roll %v, want %v over %q", k, got, want, bytes(kind))
		}
		l := p.link(clock, from, to)
		dup := 0
		if unit(bytes('d')) < p.DupProb {
			dup = 1
		}
		hold := 0
		if unit(bytes('h')) < p.DelayProb {
			hold = min(1+int(unit(bytes('l'))*float64(p.MaxDelay)), p.MaxDelay)
		}
		if got, got2 := l.extraCopies(rel, args), l.holdFor(rel, args); got != dup || got2 != hold {
			t.Fatalf("case %d: link decides %d copies held %d, want %d and %d", k, got, got2, dup, hold)
		}
	}

	net := MustNetwork("n1", "n2", "n3", "n4")
	in := fact.MustSchema(map[string]int{"E": 2, "F": 1, "T": 3})
	fnv32 := func(f fact.Fact) []NodeID {
		h := fnv.New32a()
		h.Write([]byte(f.Key()))
		return []NodeID{net[int(h.Sum32())%len(net)]}
	}
	union := func(f fact.Fact) []NodeID {
		var out []NodeID
		for i := range f.Arity() {
			h := fnv.New32a()
			h.Write([]byte(f.Arg(i)))
			out = append(out, net[int(h.Sum32())%len(net)])
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	for _, c := range []struct {
		name string
		pol  Policy
		def  func(fact.Fact) []NodeID
	}{
		{"hash", HashPolicy(net), fnv32},
		{"domain-guided", DomainGuided(HashAssignment(net)), union},
		{"first-attribute", FirstAttrPolicy(net), nil},
		{"all-to-node", AllToNode("n2"), nil},
		{"replicate", ReplicateAll(net), nil},
		{"random", RandomPolicy(net, 7), nil},
		{"random-assignment", DomainGuided(RandomAssignment(net, 7)), nil},
	} {
		sp := &Stepper{Net: net, Trans: &Transducer{Schema: Schema{In: in}}, Pol: c.pol}
		for k := 0; k < 300; k++ {
			name := []string{"E", "F", "T"}[rng.Intn(3)]
			rel, args := fact.InternString(name), make([]fact.ID, in[name])
			for i := range args {
				args[i] = sym()
			}
			f := fact.FromIDs(rel, args)
			want := c.pol.Nodes(f)
			if c.def != nil && !slices.Equal(want, c.def(f)) {
				t.Fatalf("%s: Nodes(%v) = %v, its definition gives %v", c.name, f, want, c.def(f))
			}
			for _, x := range net {
				if got := sp.responsible(x, rel, args); got != slices.Contains(want, x) {
					t.Fatalf("%s: the id ask says %v responsible for %v is %v; Nodes gives %v", c.name, x, f, got, want)
				}
			}
		}
	}
}
