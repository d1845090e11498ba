package netsim

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/transducer"
)

// Routing selects how a send set reaches other nodes.
type Routing int

const (
	// RouteBroadcast delivers every sent fact to every other node —
	// the paper's Section 4.1.3 semantics and the default.
	RouteBroadcast Routing = iota
	// RouteNeighbors delivers sent facts only to the sender's
	// topology neighbors (hop-by-hop networking in the style of the
	// declarative-networking systems the paper targets). Requires a
	// topology, and a strategy that relays — core.Gossip — for facts
	// to cross the graph.
	RouteNeighbors
)

// String names the routing in the form ParseRouting accepts.
func (r Routing) String() string {
	if r == RouteNeighbors {
		return "neighbors"
	}
	return "broadcast"
}

// ParseRouting parses a routing name (the -routing CLI flag).
func ParseRouting(s string) (Routing, error) {
	switch s {
	case "broadcast":
		return RouteBroadcast, nil
	case "neighbors":
		return RouteNeighbors, nil
	default:
		return 0, fmt.Errorf("netsim: unknown routing %q (want broadcast|neighbors)", s)
	}
}

// Options configures a simulator instance.
type Options struct {
	// Topo, when set, must describe exactly the network's nodes; it
	// scopes neighbor routing and stretches latencies across WAN
	// clusters. Nil means fully connected with unit latency.
	Topo *generate.Topology
	// Routing picks broadcast (default) or neighbor delivery.
	Routing Routing
	// Seed drives the event queue's tiebreak hash.
	Seed int64
	// MaxEvents bounds the event-driven run's activations and crashes
	// (arrivals are not counted); 0 picks a default scaled to the
	// network size. Exhausting it yields ErrNoQuiescence.
	MaxEvents int
	// Want, when set, is the oracle Q(I): any output fact outside it
	// is recorded in WrongFacts as it appears.
	Want *fact.Instance
}

// Sim is one simulator instance: the transducer machine — the
// configuration, the lockstep primitives (Heartbeat, Deliver, ...,
// RunToQuiescence), fault application, metrics and the Want/WrongFacts
// oracle are all the embedded transducer.Simulation's — plus the
// event-driven scheduler (Run) that makes idle nodes free.
type Sim struct {
	*transducer.Simulation

	opts Options

	heap    evHeap
	seq     uint64
	pending []int64 // scheduled activation time per node, -1 if none
	now     int64

	// Scheduler accounting: events popped, scheduler operations
	// charged (node visits), heap high-water mark.
	events   int
	schedOps int
	heapMax  int
}

// New validates the components and builds the start configuration.
// When opts.Topo is set it must enumerate exactly the network's nodes.
func New(net transducer.Network, t *transducer.Transducer, pol transducer.Policy, mod transducer.Model, input *fact.Instance, opts Options) (*Sim, error) {
	if opts.Topo != nil {
		if opts.Topo.Len() != len(net) {
			return nil, fmt.Errorf("netsim: topology has %d nodes, network %d", opts.Topo.Len(), len(net))
		}
		for i, x := range net {
			if opts.Topo.Node(i) != x {
				return nil, fmt.Errorf("netsim: topology node %d is %s, network has %s", i, opts.Topo.Node(i), x)
			}
		}
	}
	var recipients [][]int32
	if opts.Routing == RouteNeighbors {
		if opts.Topo == nil {
			return nil, fmt.Errorf("netsim: neighbor routing needs a topology")
		}
		recipients = make([][]int32, len(net))
		for i := range net {
			recipients[i] = opts.Topo.Neighbors(i)
		}
	}
	m, err := transducer.NewSimulationOver(net, t, pol, mod, input, recipients)
	if err != nil {
		return nil, err
	}
	m.Want = opts.Want
	s := &Sim{Simulation: m, opts: opts, pending: make([]int64, len(net))}
	for i := range s.pending {
		s.pending[i] = -1
	}
	return s, nil
}

// NetworkOf builds the transducer network over a topology's nodes.
func NetworkOf(topo *generate.Topology) transducer.Network {
	return transducer.MustNetwork(topo.Nodes()...)
}

// Now returns the event scheduler's logical time.
func (s *Sim) Now() int64 { return s.now }

// Events returns how many events the event scheduler popped.
func (s *Sim) Events() int { return s.events }

// SchedOps returns the scheduler operations Run charged: one per
// activation. The dense schedule's count on the same machine is
// Clock() after RunToQuiescence (one visit per node per round); the
// dense/event ratio on a workload is the idle-nodes-cost-nothing win.
func (s *Sim) SchedOps() int { return s.schedOps }

// HeapMax returns the event queue's high-water depth.
func (s *Sim) HeapMax() int { return s.heapMax }

// latency returns the logical delivery time of a hop from i to j.
func (s *Sim) latency(i, j int) int64 {
	if s.opts.Topo == nil {
		return 1
	}
	return int64(s.opts.Topo.Latency(i, j))
}
