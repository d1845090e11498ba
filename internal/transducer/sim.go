package transducer

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fact"
	"repro/internal/obs"
)

// multiset is a message buffer: facts with multiplicities
// (Section 4.1.3 uses multisets because the same message can be sent
// several times and float around simultaneously). It logs arrivals, so
// one builds no key and probes no index: takeAll collapses copies into
// its set, and the walks that need each fact once sort and merge.
type multiset struct {
	msgs  []counted
	total int
}

// counted is a fact and a number of its copies.
type counted struct {
	f fact.Fact
	n int
}

func newMultiset() *multiset { return &multiset{} }

func (m *multiset) add(f fact.Fact, n int) {
	m.msgs = append(m.msgs, counted{f, n})
	m.total += n
}

func (m *multiset) size() int { return m.total }

func (m *multiset) empty() bool { return m.total == 0 }

// drop empties the buffer and keeps the log's storage.
func (m *multiset) drop() {
	clear(m.msgs)
	m.msgs, m.total = m.msgs[:0], 0
}

// takeAll removes the whole buffer, adds it to out collapsed to a set,
// and returns the number of message instances delivered.
func (m *multiset) takeAll(out *fact.Instance) int {
	delivered := m.total
	for _, c := range m.msgs {
		out.Add(c.f)
	}
	m.drop()
	return delivered
}

// sorted returns each buffered fact once, with all its copies, in
// Fact.Compare order: every walk that consumes randomness or feeds
// observable output uses it. Schedules and outputs were pinned in
// Fact.Key byte order, which is this order as every message relation
// has one arity.
func (m *multiset) sorted() []counted {
	cs := slices.Clone(m.msgs)
	slices.SortFunc(cs, func(a, b counted) int { return a.f.Compare(b.f) })
	merged := cs[:0]
	for _, c := range cs {
		if k := len(merged) - 1; k >= 0 && merged[k].f.Equal(c.f) {
			merged[k].n += c.n
		} else {
			merged = append(merged, c)
		}
	}
	return merged
}

// take walks the buffer in sorted order, removes as many copies of each
// fact as fn returns (at most the count it is given), and returns the
// number removed.
func (m *multiset) take(fn func(f fact.Fact, count int) int) int {
	cs, taken := m.sorted(), 0
	m.drop()
	for _, c := range cs {
		n := fn(c.f, c.n)
		if taken += n; n < c.n {
			m.add(c.f, c.n-n)
		}
	}
	return taken
}

// takeRandom removes a random submultiset (each copy kept or delivered
// with probability 1/2), adds the delivered facts to out as a set, and
// returns the number of message instances delivered. The coins are
// drawn in take's order, so the draws are reproducible across runs.
func (m *multiset) takeRandom(rng *rand.Rand, out *fact.Instance) int {
	return m.take(func(f fact.Fact, count int) int {
		n := 0
		for c := 0; c < count; c++ {
			if rng.Intn(2) == 0 {
				n++
			}
		}
		if n > 0 {
			out.Add(f)
		}
		return n
	})
}

// clone returns an independent copy of the buffer (facts are immutable).
func (m *multiset) clone() *multiset {
	return &multiset{msgs: slices.Clone(m.msgs), total: m.total}
}

// Metrics accumulates counters over a simulation, used by the
// benchmark harness to compare evaluation strategies and by the
// fault-injection tests to account for every message instance. The
// conservation invariant, with or without faults, is
//
//	MessagesSent = MessagesDelivered + buffered + held + MessagesDropped
//
// where buffered and held are the live totals reported by
// TotalBuffered and totalHeld.
type Metrics struct {
	// Transitions counts all transitions, including heartbeats.
	Transitions int
	// Heartbeats counts transitions that delivered no messages.
	Heartbeats int
	// MessagesSent counts (fact, recipient) pairs enqueued, including
	// fault-injected duplicates and crash-recovery retransmissions.
	MessagesSent int
	// MessagesDelivered counts message instances taken from buffers.
	MessagesDelivered int
	// MessagesDuplicated counts extra copies created by the fault plan.
	MessagesDuplicated int
	// MessagesDelayed counts instances the fault plan held back.
	MessagesDelayed int
	// MessagesDropped counts in-flight instances lost to crashes.
	MessagesDropped int
	// MessagesRetransmitted counts instances rebuffered from send logs
	// when a crashed node restarts.
	MessagesRetransmitted int
	// Crashes counts crash-restart events applied.
	Crashes int
	// StalledSteps counts activations swallowed by a stall window.
	StalledSteps int
}

// Merge adds o's counters into m, field by field. The schedule
// explorer folds every explored schedule's Metrics into one total this
// way.
func (m *Metrics) Merge(o Metrics) {
	m.Transitions += o.Transitions
	m.Heartbeats += o.Heartbeats
	m.MessagesSent += o.MessagesSent
	m.MessagesDelivered += o.MessagesDelivered
	m.MessagesDuplicated += o.MessagesDuplicated
	m.MessagesDelayed += o.MessagesDelayed
	m.MessagesDropped += o.MessagesDropped
	m.MessagesRetransmitted += o.MessagesRetransmitted
	m.Crashes += o.Crashes
	m.StalledSteps += o.StalledSteps
}

// Publish adds the counters into the registry under the sim.*
// vocabulary of internal/obs names.go. Safe on a nil registry.
func (m Metrics) Publish(reg *obs.Registry) {
	reg.Counter(obs.SimTransitions).Add(int64(m.Transitions))
	reg.Counter(obs.SimHeartbeats).Add(int64(m.Heartbeats))
	reg.Counter(obs.SimSent).Add(int64(m.MessagesSent))
	reg.Counter(obs.SimDelivered).Add(int64(m.MessagesDelivered))
	reg.Counter(obs.SimDuplicated).Add(int64(m.MessagesDuplicated))
	reg.Counter(obs.SimDelayed).Add(int64(m.MessagesDelayed))
	reg.Counter(obs.SimDropped).Add(int64(m.MessagesDropped))
	reg.Counter(obs.SimRetransmitted).Add(int64(m.MessagesRetransmitted))
	reg.Counter(obs.SimCrashes).Add(int64(m.Crashes))
	reg.Counter(obs.SimStalledSteps).Add(int64(m.StalledSteps))
}

// heldMsg is a message instance the fault plan is holding back: it
// enters the recipient's buffer once the clock reaches release.
type heldMsg struct {
	release int
	f       fact.Fact
	n       int
}

// node is one network node's share of the configuration: the fixed
// input fragment dist_P(I)(x), the state, the message buffer, the
// messages the fault plan holds back from it, and the set of facts it
// has ever sent (the material for crash-recovery rebroadcast).
type node struct {
	local   *fact.Instance
	state   *fact.Instance
	buf     *multiset
	held    []heldMsg
	sentLog *fact.Instance
}

// placer takes one fault-routed send off the machine's hands: copies
// instances of f from node index from to node index to, held back hold
// clock ticks by the fault plan. Whoever takes them returns them with
// Arrive.
type placer = func(from, to int, f fact.Fact, copies, hold int)

// Simulation is a transducer network (N, Υ, Π, P) running on one
// input — the one place a configuration lives. The lockstep primitives
// (Heartbeat, Deliver, ...) advance its clock one attempt at a time
// and keep sent messages in its own buffers and held queues; a
// scheduler that owns the clock (internal/netsim) drives the same
// machine through DeliverAt, CrashAt and Arrive and keeps messages in
// transit itself.
type Simulation struct {
	Net   Network
	Trans *Transducer
	Pol   Policy
	Mod   Model

	input *fact.Instance
	step  Stepper
	// delivered is the message set of the current transition, refilled
	// from a buffer for each one (see inbox): it is valid until the next
	// transition, and a clone has its own.
	delivered *fact.Instance
	idx       map[NodeID]int
	nodes     []node
	// recipients[i] lists the Net indices receiving node i's sends;
	// nil is the paper's broadcast to every other node.
	recipients [][]int32

	// Fault injection (nil faults = the faithful Section 4.1.3
	// semantics). clock counts transition attempts (or carries the
	// scheduler's logical time) and drives the plan's windows; inflight
	// counts copies handed to a placer and not yet returned.
	faults   *FaultPlan
	clock    int
	inflight int

	// Metrics accumulates counters; reset freely between phases.
	Metrics Metrics

	// Want, when set, is the oracle Q(I) and the one soundness test:
	// every output fact outside it is appended to WrongFacts as a
	// transition adds it, and WrongAt is the transition count at the
	// first. A node's output only grows until a crash clears it, so
	// testing each transition's new outputs tests every reachable out(R).
	Want       *fact.Instance
	WrongFacts []fact.Fact
	WrongAt    int

	// tracer, when set, receives one typed event per transition, stall,
	// crash, hold and quiescence (the sim.* kinds of internal/obs).
	tracer *obs.Tracer
}

// Observe attaches a structured event tracer to the simulation: every
// transition, stall, crash, message hold and quiescence emits one
// typed event (the sim.* kinds of internal/obs names.go). Events are a
// deterministic function of the schedule, so equal-seed runs produce
// byte-identical streams. Pass nil to disable.
func (s *Simulation) Observe(tracer *obs.Tracer) { s.tracer = tracer }

// Tracer returns the attached event tracer (nil when none), for a
// scheduler that adds its own event kinds to the same stream.
func (s *Simulation) Tracer() *obs.Tracer { return s.tracer }

// NewSimulation validates the components and builds the start
// configuration (all states and buffers empty) with the paper's
// routing: every sent fact reaches every other node.
func NewSimulation(net Network, t *Transducer, p Policy, mod Model, input *fact.Instance) (*Simulation, error) {
	return NewSimulationOver(net, t, p, mod, input, nil)
}

// NewSimulationOver is NewSimulation on a network whose links are
// given: recipients[i] lists the indices (in net order) of the nodes
// that receive node i's sends and that resend to it after a crash, so
// the lists must be symmetric. Nil recipients broadcast.
func NewSimulationOver(net Network, t *Transducer, p Policy, mod Model, input *fact.Instance, recipients [][]int32) (*Simulation, error) {
	if len(net) == 0 {
		return nil, fmt.Errorf("transducer: empty network")
	}
	if recipients != nil && len(recipients) != len(net) {
		return nil, fmt.Errorf("transducer: recipients for %d nodes, network has %d", len(recipients), len(net))
	}
	if err := t.Schema.Validate(); err != nil {
		return nil, err
	}
	var bad *fact.Fact
	input.Each(func(f fact.Fact) bool {
		if !t.Schema.In.Covers(f) {
			g := f
			bad = &g
			return false
		}
		return true
	})
	if bad != nil {
		return nil, fmt.Errorf("transducer: input fact %v not over input schema %v", *bad, t.Schema.In)
	}
	s := &Simulation{
		Net:        net,
		Trans:      t,
		Pol:        p,
		Mod:        mod,
		input:      input.Clone(),
		step:       Stepper{Net: net, Trans: t, Pol: p, Mod: mod},
		delivered:  fact.NewInstance(),
		idx:        make(map[NodeID]int, len(net)),
		nodes:      make([]node, len(net)),
		recipients: recipients,
	}
	frag := Dist(p, net, input)
	for i, x := range net {
		s.idx[x] = i
		s.nodes[i] = node{local: frag[x], state: fact.NewInstance(), buf: newMultiset(), sentLog: fact.NewInstance()}
	}
	return s, nil
}

// SetFaults installs a fault plan between send and buffer. Pass nil to
// restore the faithful semantics. Install the plan before stepping:
// its decisions are functions of the transition clock, so a plan
// attached mid-run sees only the remaining transitions.
func (s *Simulation) SetFaults(p *FaultPlan) { s.faults = p }

// Faults returns the installed fault plan, if any.
func (s *Simulation) Faults() *FaultPlan { return s.faults }

// Clock returns the number of transition attempts so far (including
// stalled activations), or the logical time of the last DeliverAt or
// CrashAt. The fault plan's windows are expressed on this clock.
func (s *Simulation) Clock() int { return s.clock }

// clone returns an independent copy of the simulation: states and
// buffers are deep-copied, so stepping the clone leaves the original
// untouched. Used by the exhaustive run explorer.
func (s *Simulation) clone() *Simulation {
	c := *s // plans are immutable and decision-pure; idx and recipients never change
	c.tracer = nil
	// The clone steps into accumulators, node memories and a delivered
	// set of its own rather than share maps.
	c.step.acc, c.step.mem = Delta{}, nil
	c.delivered = fact.NewInstance()
	c.WrongFacts = append([]fact.Fact(nil), s.WrongFacts...)
	c.nodes = make([]node, len(s.nodes))
	for i, n := range s.nodes {
		c.nodes[i] = node{
			local:   n.local, // fragments are never mutated after construction
			state:   n.state.Clone(),
			buf:     n.buf.clone(),
			held:    append([]heldMsg(nil), n.held...),
			sentLog: n.sentLog.Clone(),
		}
	}
	return &c
}

// at returns x's index in Net, or an error for a node outside the
// network.
func (s *Simulation) at(x NodeID) (int, error) {
	i, ok := s.idx[x]
	if !ok {
		return 0, fmt.Errorf("transducer: node %s not in network", x)
	}
	return i, nil
}

// LocalSize returns the number of facts in node x's input fragment.
func (s *Simulation) LocalSize(x NodeID) int { return s.nodes[s.idx[x]].local.Len() }

// State returns a copy of node x's current state (output ∪ memory).
func (s *Simulation) State(x NodeID) *fact.Instance { return s.nodes[s.idx[x]].state.Clone() }

// Buffered returns the number of message instances waiting at node x.
func (s *Simulation) Buffered(x NodeID) int { return s.nodes[s.idx[x]].buf.size() }

// TotalBuffered returns the number of message instances in all buffers.
func (s *Simulation) TotalBuffered() int {
	total := 0
	for i := range s.nodes {
		total += s.nodes[i].buf.size()
	}
	return total
}

// heldAt returns the number of message instances held back from node i.
func (s *Simulation) heldAt(i int) int {
	total := 0
	for _, h := range s.nodes[i].held {
		total += h.n
	}
	return total
}

// totalHeld returns the number of message instances the fault plan is
// currently holding back (delays and unhealed partitions).
func (s *Simulation) totalHeld() int {
	total := 0
	for i := range s.nodes {
		total += s.heldAt(i)
	}
	return total
}

// Conserved checks the message conservation invariant: every sent
// copy is delivered, buffered, held, in flight, or dropped.
func (s *Simulation) Conserved() bool {
	m := s.Metrics
	return m.MessagesSent == m.MessagesDelivered+s.TotalBuffered()+s.totalHeld()+s.inflight+m.MessagesDropped
}

// begin opens one lockstep transition attempt: the clock advances,
// scheduled crashes fire, expired holds drain into their buffers, and
// the active node's stall status is reported.
func (s *Simulation) begin(i int) (stalled bool) {
	s.clock++
	if s.faults == nil {
		return false
	}
	for _, c := range s.faults.Crashes {
		if c.At != s.clock {
			continue
		}
		if j, ok := s.idx[c.Node]; ok {
			s.crash(j)
		}
	}
	s.releaseHeld()
	return s.stalled(i)
}

// stalled reports whether node i sits in a stall window at the current
// clock, and accounts for the swallowed activation if so. A stalled
// activation is a no-op — the node performs no transition at all
// during its window.
func (s *Simulation) stalled(i int) bool {
	if s.faults == nil || !s.faults.stalledAt(s.Net[i], s.clock) {
		return false
	}
	s.Metrics.StalledSteps++
	emitStall(s.tracer, s.Metrics.Transitions, s.clock, s.Net[i])
	return true
}

// releaseHeld moves every held message whose hold expired into its
// recipient's buffer.
func (s *Simulation) releaseHeld() {
	for i := range s.nodes {
		n := &s.nodes[i]
		if len(n.held) == 0 {
			continue
		}
		keep := n.held[:0]
		for _, h := range n.held {
			if h.release <= s.clock {
				n.buf.add(h.f, h.n)
			} else {
				keep = append(keep, h)
			}
		}
		n.held = keep
	}
}

// eachRecipient enumerates the nodes that receive node i's sends, in
// network order.
func (s *Simulation) eachRecipient(i int, fn func(j int)) {
	if s.recipients != nil {
		for _, j := range s.recipients[i] {
			fn(int(j))
		}
		return
	}
	for j := range s.nodes {
		if j != i {
			fn(j)
		}
	}
}

// crash applies a crash-restart of node i: volatile state — memory,
// outputs, buffered and held messages — is dropped, while the durable
// local input fragment survives (copies a scheduler holds in flight
// survive too: they arrive after the restart). Recovery rebroadcast
// then refills the buffer with every fact the nodes that send to i
// have ever sent (their send logs), so no message is permanently lost
// and fairness is preserved. Dropped instances are counted in
// MessagesDropped so the conservation invariant stays checkable.
func (s *Simulation) crash(i int) {
	n := &s.nodes[i]
	dropped := n.buf.size() + s.heldAt(i)
	s.Metrics.MessagesDropped += dropped
	n.state = fact.NewInstance()
	delete(s.step.mem, s.Net[i]) // the Stepper's memory of the old state
	n.buf = newMultiset()
	n.held = nil
	s.eachRecipient(i, func(j int) {
		for _, f := range s.nodes[j].sentLog.Facts() {
			n.buf.add(f, 1)
			s.Metrics.MessagesSent++
			s.Metrics.MessagesRetransmitted++
		}
	})
	s.Metrics.Crashes++
	emitCrash(s.tracer, s.Metrics.Transitions, s.clock, s.Net[i], dropped, n.buf.size())
}

// send routes one (fact, recipient) pair through the fault plan: the
// instance may be duplicated and may be held back (random delay or an
// active partition). It then goes to place, or — lockstep, nil place —
// into the recipient's held queue or buffer.
func (s *Simulation) send(from, to int, f fact.Fact, place placer) {
	copies, delay := 1, 0
	if s.faults != nil {
		copies += s.faults.ExtraCopies(s.clock, s.Net[from], s.Net[to], f)
		delay = s.faults.HoldFor(s.clock, s.Net[from], s.Net[to], f)
	}
	s.Metrics.MessagesSent += copies
	s.Metrics.MessagesDuplicated += copies - 1
	if delay > 0 {
		s.Metrics.MessagesDelayed += copies
		emitHold(s.tracer, s.clock, s.Net[from], s.Net[to], f, copies, s.clock+delay)
	}
	n := &s.nodes[to]
	switch {
	case place != nil:
		s.inflight += copies
		place(from, to, f, copies, delay)
	case delay > 0:
		n.held = append(n.held, heldMsg{release: s.clock + delay, f: f, n: copies})
	default:
		n.buf.add(f, copies)
	}
}

// Output returns out(R) so far: the union over all nodes of their
// output facts.
func (s *Simulation) Output() *fact.Instance {
	out := fact.NewInstance()
	for i := range s.nodes {
		s.eachOutput(i, func(rel fact.ID, args []fact.ID) { out.AddIDs(rel, args) })
	}
	return out
}

// eachOutput calls fn with every output fact of node i's state, by IDs
// (the state's own storage, valid only for the call). The walk goes
// column by column, so it looks each column up in the output schema at
// its first row.
func (s *Simulation) eachOutput(i int, fn func(rel fact.ID, args []fact.ID)) {
	rel, arity, out := fact.NoID, -1, false
	s.nodes[i].state.EachIDs(func(r fact.ID, args []fact.ID) bool {
		if r != rel || len(args) != arity {
			rel, arity = r, len(args)
			ar, ok := s.Trans.Schema.Out.Arity(string(fact.Symbol(r)))
			out = ok && ar == arity
		}
		if out {
			fn(r, args)
		}
		return true
	})
}

// transition performs one transition of the active node i with the
// delivered message set m (already removed from the buffer). The
// query evaluation and state update live in the Stepper (step.go);
// this wrapper adds routing through the fault plan, the crash-recovery
// send log, the oracle check, metrics and the trace event. It reports
// whether the node's state changed or any message was sent.
func (s *Simulation) transition(i int, m *fact.Instance, place placer) (changed bool, err error) {
	n := &s.nodes[i]
	res, err := s.step.Step(s.Net[i], n.local, n.state, m)
	if err != nil {
		return false, err
	}
	changed = res.Changed

	if sent := res.Sent.Facts(); len(sent) > 0 {
		s.eachRecipient(i, func(j int) {
			for _, f := range sent {
				s.send(i, j, f, place)
			}
			changed = true
		})
		for _, f := range sent {
			n.sentLog.Add(f)
		}
	}
	s.Metrics.Transitions++
	if s.Want != nil {
		first := len(s.WrongFacts) == 0
		for _, f := range res.OutNew {
			if !s.Want.Has(f) {
				s.WrongFacts = append(s.WrongFacts, f)
			}
		}
		if first && len(s.WrongFacts) > 0 {
			s.WrongAt = s.Metrics.Transitions
			s.inOutputOrder(s.WrongFacts)
		}
	}
	if m.Empty() {
		s.Metrics.Heartbeats++
	}
	if s.tracer != nil {
		outputs := 0
		s.eachOutput(i, func(fact.ID, []fact.ID) { outputs++ })
		emitTransition(s.tracer, s.Metrics.Transitions, s.clock, s.Net[i], m, res.Sent.Len(), changed,
			outputs, n.buf.size(), s.heldAt(i))
	}
	return changed, nil
}

// inOutputOrder puts a transition's first wrong facts in the order
// Output walks them, so WrongFacts[0] is the first wrong fact of
// out(R). They are new rows of one node's state, held by no other
// node, so within a relation they already come in OutNew's sorted
// order; Output orders relations as the nodes, in network order, first
// output them.
func (s *Simulation) inOutputOrder(fs []fact.Fact) {
	var rels []fact.ID
	for i := range s.nodes {
		s.eachOutput(i, func(rel fact.ID, _ []fact.ID) {
			if !slices.Contains(rels, rel) {
				rels = append(rels, rel)
			}
		})
	}
	slices.SortStableFunc(fs, func(a, b fact.Fact) int {
		return slices.Index(rels, a.RelID()) - slices.Index(rels, b.RelID())
	})
}

// inbox returns the delivered set emptied for the next transition.
func (s *Simulation) inbox() *fact.Instance {
	s.delivered.Reset()
	return s.delivered
}

// deliverAll performs a transition of node i delivering its entire
// buffer.
func (s *Simulation) deliverAll(i int, place placer) (bool, error) {
	m := s.inbox()
	s.Metrics.MessagesDelivered += s.nodes[i].buf.takeAll(m)
	return s.transition(i, m, place)
}

// Heartbeat performs a heartbeat transition of x: no messages are
// delivered (messages may still be sent).
func (s *Simulation) Heartbeat(x NodeID) (bool, error) {
	i, err := s.at(x)
	if err != nil || s.begin(i) {
		return false, err
	}
	return s.transition(i, s.inbox(), nil)
}

// Deliver performs a transition of x delivering its entire buffer.
func (s *Simulation) Deliver(x NodeID) (bool, error) {
	i, err := s.at(x)
	if err != nil || s.begin(i) {
		return false, err
	}
	return s.deliverAll(i, nil)
}

// takeBatch removes from node i's buffer every fact selected by keep
// (all copies of each) and returns the batch as a set. The buffer is
// walked in Fact.Compare order so a stateful keep sees a reproducible
// sequence.
func (s *Simulation) takeBatch(i int, keep func(fact.Fact) bool) *fact.Instance {
	m := s.inbox()
	s.Metrics.MessagesDelivered += s.nodes[i].buf.take(func(f fact.Fact, count int) int {
		if !keep(f) {
			return 0
		}
		m.Add(f)
		return count
	})
	return m
}

// DeliverWhere performs a transition of x delivering exactly the
// buffered facts satisfying pred (all copies of each). Runs are free
// to deliver any submultiset, so this models an adversarial but fair
// scheduler; the schedule explorer builds its adversarial schedules
// from it, and tests use it to open race windows deterministically.
func (s *Simulation) DeliverWhere(x NodeID, pred func(fact.Fact) bool) (bool, error) {
	i, err := s.at(x)
	if err != nil || s.begin(i) {
		return false, err
	}
	return s.transition(i, s.takeBatch(i, pred), nil)
}

// deliverRandom performs a transition of x delivering a random
// submultiset of its buffer.
func (s *Simulation) deliverRandom(x NodeID, rng *rand.Rand) (bool, error) {
	i, err := s.at(x)
	if err != nil || s.begin(i) {
		return false, err
	}
	m := s.inbox()
	s.Metrics.MessagesDelivered += s.nodes[i].buf.takeRandom(rng, m)
	return s.transition(i, m, nil)
}

// The four methods below are the seam for a scheduler that owns the
// clock (the event heap of internal/netsim): it tells the machine what
// time it is, takes routed sends through place, and hands each copy
// back with Arrive when its time comes. Crashes and holds are then the
// scheduler's to time, so neither fires from these calls. Nodes are
// named by their index in Net.

// DeliverAt performs a transition of node i at the given clock,
// delivering its entire buffer; routed sends go to place. A node
// inside a stall window takes no transition and reports stalled.
func (s *Simulation) DeliverAt(i, clock int, place placer) (changed, stalled bool, err error) {
	s.clock = clock
	if s.stalled(i) {
		return false, true, nil
	}
	changed, err = s.deliverAll(i, place)
	return changed, false, err
}

// CrashAt applies a crash-restart of node i at the given clock.
func (s *Simulation) CrashAt(i, clock int) {
	s.clock = clock
	s.crash(i)
}

// Arrive puts n copies of f, taken earlier through a placer or
// TakeHeld, into node i's buffer.
func (s *Simulation) Arrive(i int, f fact.Fact, n int) {
	s.inflight -= n
	s.nodes[i].buf.add(f, n)
}

// TakeHeld empties every held queue into fn (recipient index, fact,
// copies, release clock), so a machine stepped in lockstep first can
// finish under a scheduler that keeps messages in transit itself.
func (s *Simulation) TakeHeld(fn func(to int, f fact.Fact, n, release int)) {
	for i := range s.nodes {
		for _, h := range s.nodes[i].held {
			s.inflight += h.n
			fn(i, h.f, h.n, h.release)
		}
		s.nodes[i].held = nil
	}
}

// ErrNoQuiescence is wrapped by run drivers when the bound is
// exhausted before the network stabilizes.
var ErrNoQuiescence = fmt.Errorf("transducer: network did not quiesce within the round bound")

// RunToQuiescence activates the nodes round-robin, delivering full
// buffers (a fair run), until a full round changes no state, sends no
// message, and leaves every buffer empty. It returns the network
// output out(R). Transducers whose runs do not stabilize within
// maxRounds yield ErrNoQuiescence. Every node is visited every round,
// so Clock() is also the dense schedule's scheduler-operation count.
// A machine with Want set stops at its first wrong fact: the run
// returns out(R) right after the transition that appended it, without
// quiescing, and WrongFacts holds the verdict.
func (s *Simulation) RunToQuiescence(maxRounds int) (*fact.Instance, error) {
	for round := 0; round < maxRounds; round++ {
		roundChanged := false
		for _, x := range s.Net {
			changed, err := s.Deliver(x)
			if err != nil {
				return nil, err
			}
			if len(s.WrongFacts) > 0 {
				return s.Output(), nil
			}
			if changed {
				roundChanged = true
			}
		}
		if !roundChanged && s.TotalBuffered() == 0 && s.totalHeld() == 0 && s.faultsDone() {
			out := s.Output()
			emitQuiesce(s.tracer, s.clock, round+1, out.Len())
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w (maxRounds=%d)", ErrNoQuiescence, maxRounds)
}

// faultsDone reports whether every fault-plan window lies behind the
// clock. A network must not be declared quiescent while a crash or
// stall is still scheduled: the rounds keep ticking (empty deliveries)
// until the plan's horizon passes and any late fault has played out.
func (s *Simulation) faultsDone() bool {
	return s.faults == nil || s.clock >= s.faults.horizon()
}

// RoundBound is the one round bound of a fair drive: maxRounds, or
// when it is <= 0 the default 32 + |I| + 4|N| (ample for the built-in
// strategies), plus the installed fault plan's horizon — the rounds a
// run must keep ticking before it may quiesce.
func (s *Simulation) RoundBound(maxRounds int) int {
	if maxRounds <= 0 {
		maxRounds = 32 + s.input.Len() + 4*len(s.Net)
	}
	if s.faults != nil {
		maxRounds += s.faults.horizon()
	}
	return maxRounds
}

// RunMetrics returns the accumulated counters.
func (s *Simulation) RunMetrics() Metrics { return s.Metrics }

// BufferedFacts returns the facts currently buffered at node x, in
// Fact.Compare order — the reproducible iteration order every
// observable buffer walk must use. Copies are collapsed: each distinct
// fact appears once.
func (s *Simulation) BufferedFacts(x NodeID) []fact.Fact {
	cs := s.nodes[s.idx[x]].buf.sorted()
	fs := make([]fact.Fact, len(cs))
	for k, c := range cs {
		fs[k] = c.f
	}
	return fs
}

// known returns the probe of the values node x has already seen: its
// own identifier plus the active domains of its input fragment and
// state.
func (s *Simulation) known(x NodeID) func(fact.ID) bool {
	n := &s.nodes[s.idx[x]]
	local, state := n.local.Known(), n.state.Known()
	self, _ := fact.LookupValue(x) // NoID when no fact holds x
	return func(id fact.ID) bool { return id == self || local(id) || state(id) }
}

// RandomPrefix takes steps random transitions — heartbeats, full,
// random and planned-batch deliveries across random nodes — and stops
// at the first error or wrong fact. It is the one random schedule: the
// explorer's seed:k schedules and ComputeRun's Seed/RandomSteps prefix
// a fair drive with it, so a run is reproducible from the seed and the
// installed fault plan alone.
func (s *Simulation) RandomPrefix(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < steps; n++ {
		x := s.Net[rng.Intn(len(s.Net))]
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = s.Heartbeat(x)
		case 1:
			_, err = s.Deliver(x)
		case 2:
			_, err = s.deliverRandom(x, rng)
		default:
			// A random planned batch: each buffered fact kept or
			// withheld by coin flip (all copies at once).
			_, err = s.DeliverWhere(x, func(fact.Fact) bool { return rng.Intn(2) == 0 })
		}
		if err != nil || len(s.WrongFacts) > 0 {
			return err
		}
	}
	return nil
}
