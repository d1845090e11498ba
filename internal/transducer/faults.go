package transducer

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fact"
)

// This file implements the fault-injection layer of the simulator: a
// pluggable plan sitting between send and buffer. The paper quantifies
// its Figure 2 equalities over all fair message-delivery policies;
// the plan widens the simulator's reach toward that quantifier with
// message duplication, delays, network partitions, node stalls, and
// crash-restarts — all fairness-preserving (nothing is lost forever:
// delays expire, partitions heal, crashed nodes recover with a
// rebroadcast), so every faulty run is still a run in the paper's
// sense and must converge to Q(I) for an in-class strategy.
//
// Every decision is a pure function of (Seed, clock, sender,
// recipient, fact): the plan carries no mutable state, so cloned
// simulations replay identically and schedules are reproducible from
// the seed alone.

// FaultPlan describes the faults injected into a run. The zero value
// injects nothing. Plans are immutable once installed.
type FaultPlan struct {
	// Seed drives the per-message duplication and delay coin flips.
	Seed int64
	// DupProb is the probability that a sent instance is duplicated
	// (one extra copy enqueued alongside the original).
	DupProb float64
	// DelayProb is the probability that a sent instance is held back
	// for 1..MaxDelay transitions before entering the buffer.
	DelayProb float64
	// MaxDelay bounds the random hold, in clock ticks.
	MaxDelay int
	// Partitions are network cuts; messages crossing an active cut are
	// held until the window heals.
	Partitions []Partition
	// Stalls silence nodes for a window: activations become no-ops.
	Stalls []Stall
	// Crashes schedule crash-restart events.
	Crashes []Crash
}

// Partition isolates Group from the rest of the network during the
// clock window [From, To): a message whose sender and recipient lie on
// opposite sides of the cut is held back until the partition heals.
type Partition struct {
	From, To int
	Group    []NodeID
}

// contains reports whether x is inside the partitioned group.
func (p Partition) contains(x NodeID) bool {
	for _, y := range p.Group {
		if y == x {
			return true
		}
	}
	return false
}

// Stall keeps a node from taking transitions during [From, To).
type Stall struct {
	Node     NodeID
	From, To int
}

// Crash schedules a crash-restart of Node when the clock reaches At.
type Crash struct {
	Node NodeID
	At   int
}

// A roll is a deterministic pseudo-uniform value in [0,1) for one
// decision point; kind namespaces independent decisions on the same
// message. It is the FNV-1a hash of the decimal seed, NUL, kind,
// decimal clock, NUL, from, NUL, to, NUL and the fact's Key. The bytes
// before the Key are one link's prefix, hashed once per kind by link;
// roll streams the Key's bytes from the symbol table on.
func (p *FaultPlan) prefix(kind byte, clock int, from, to NodeID) uint64 {
	var scratch [64]byte
	b := append(strconv.AppendInt(scratch[:0], p.Seed, 10), 0, kind)
	b = append(strconv.AppendInt(b, int64(clock), 10), 0)
	return fnv64a(fnv64Offset, append(append(append(append(b, from...), 0), to...), 0))
}

func roll(h uint64, rel fact.ID, args []fact.ID) float64 {
	h = fnv64a(h, fact.Symbol(rel))
	for _, a := range args {
		h = fnv64a(h*fnv64Prime, fact.Symbol(a)) // a NUL, then the value
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// link is the plan's view of the sends from one node to another at one
// clock: the prefixes of its 'd', 'h' and 'l' rolls and the hold of the
// partitions it crosses.
type link struct {
	p              *FaultPlan
	dup, hold, lag uint64
	cut            int
}

func (p *FaultPlan) link(clock int, from, to NodeID) link {
	l := link{p: p}
	if p.DupProb > 0 {
		l.dup = p.prefix('d', clock, from, to)
	}
	if p.DelayProb > 0 && p.MaxDelay > 0 {
		l.hold, l.lag = p.prefix('h', clock, from, to), p.prefix('l', clock, from, to)
	}
	for _, cut := range p.Partitions {
		if clock >= cut.From && clock < cut.To && cut.contains(from) != cut.contains(to) {
			l.cut = max(l.cut, cut.To-clock)
		}
	}
	return l
}

// extraCopies is ExtraCopies on the link.
func (l link) extraCopies(rel fact.ID, args []fact.ID) int {
	if l.p.DupProb > 0 && roll(l.dup, rel, args) < l.p.DupProb {
		return 1
	}
	return 0
}

// holdFor is HoldFor on the link.
func (l link) holdFor(rel fact.ID, args []fact.ID) int {
	p, d := l.p, 0
	if p.DelayProb > 0 && p.MaxDelay > 0 && roll(l.hold, rel, args) < p.DelayProb {
		d = min(1+int(roll(l.lag, rel, args)*float64(p.MaxDelay)), p.MaxDelay)
	}
	return max(d, l.cut)
}

// ExtraCopies returns how many duplicate copies of the message to
// enqueue (0 or 1). It and HoldFor are the per-message fault decisions,
// also used by delivery layers outside the simulator: the cluster
// delta stream (internal/cluster) reuses fault plans as its network
// model, with the global log position as clock, the router as sender
// and a shard as recipient. Both remain pure functions of (Seed,
// clock, endpoints, fact), so faulty cluster runs replay exactly like
// faulty simulator runs.
func (p *FaultPlan) ExtraCopies(clock int, from, to NodeID, f fact.Fact) int {
	return p.link(clock, from, to).extraCopies(f.RelID(), f.ArgIDs())
}

// HoldFor returns how many clock ticks the message is held back: the
// maximum of the random delay draw and any active partition crossing,
// 0 for immediate buffering.
func (p *FaultPlan) HoldFor(clock int, from, to NodeID, f fact.Fact) int {
	return p.link(clock, from, to).holdFor(f.RelID(), f.ArgIDs())
}

// stalledAt reports whether node x is inside a stall window at the
// given clock value.
func (p *FaultPlan) stalledAt(x NodeID, clock int) bool {
	for _, st := range p.Stalls {
		if st.Node == x && clock >= st.From && clock < st.To {
			return true
		}
	}
	return false
}

// horizon returns the first clock value at which every scheduled
// window and event of the plan lies in the past. Random delays extend
// at most MaxDelay past the last send, which the quiescence check
// already covers through totalHeld.
func (p *FaultPlan) horizon() int {
	h := 0
	for _, cut := range p.Partitions {
		if cut.To > h {
			h = cut.To
		}
	}
	for _, st := range p.Stalls {
		if st.To > h {
			h = st.To
		}
	}
	for _, c := range p.Crashes {
		if c.At+1 > h {
			h = c.At + 1
		}
	}
	return h
}

// Empty reports whether the plan injects no fault at all; a nil plan
// is empty.
func (p *FaultPlan) Empty() bool {
	return p == nil || p.DupProb <= 0 && p.DelayProb <= 0 &&
		len(p.Partitions) == 0 && len(p.Stalls) == 0 && len(p.Crashes) == 0
}

// String renders the plan compactly, in the same syntax ParseFaultPlan
// accepts.
func (p *FaultPlan) String() string {
	var parts []string
	if p.DupProb > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", p.DupProb))
	}
	if p.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g:%d", p.DelayProb, p.MaxDelay))
	}
	for _, st := range p.Stalls {
		parts = append(parts, fmt.Sprintf("stall=%s@%d-%d", st.Node, st.From, st.To))
	}
	for _, c := range p.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%s@%d", c.Node, c.At))
	}
	for _, cut := range p.Partitions {
		group := make([]string, len(cut.Group))
		for i, x := range cut.Group {
			group[i] = string(x)
		}
		parts = append(parts, fmt.Sprintf("part=%d-%d:%s", cut.From, cut.To, strings.Join(group, "|")))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses the CLI fault specification: a comma-separated
// list of
//
//	dup=P            duplicate each message with probability P
//	delay=P:N        hold each message with probability P for 1..N ticks
//	stall=x@F-T      stall node x during clock window [F, T)
//	crash=x@A        crash-restart node x at clock A
//	part=F-T:x|y|..  partition {x,y,..} from the rest during [F, T)
//
// The seed parameter pins the plan's coin flips.
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	p := &FaultPlan{Seed: seed}
	if strings.TrimSpace(spec) == "" || spec == "none" {
		return p, nil
	}
	for _, item := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return nil, fmt.Errorf("transducer: fault item %q: want key=value", item)
		}
		switch key {
		case "dup":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("transducer: dup probability %q: %v", val, err)
			}
			p.DupProb = f
		case "delay":
			prob, max, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("transducer: delay %q: want P:N", val)
			}
			f, err := strconv.ParseFloat(prob, 64)
			if err != nil {
				return nil, fmt.Errorf("transducer: delay probability %q: %v", prob, err)
			}
			n, err := strconv.Atoi(max)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("transducer: delay bound %q: want a positive integer", max)
			}
			p.DelayProb, p.MaxDelay = f, n
		case "stall":
			node, win, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("transducer: stall %q: want node@from-to", val)
			}
			from, to, err := parseWindow(win)
			if err != nil {
				return nil, err
			}
			p.Stalls = append(p.Stalls, Stall{Node: NodeID(node), From: from, To: to})
		case "crash":
			node, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("transducer: crash %q: want node@clock", val)
			}
			n, err := strconv.Atoi(at)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("transducer: crash clock %q: want a positive integer", at)
			}
			p.Crashes = append(p.Crashes, Crash{Node: NodeID(node), At: n})
		case "part":
			win, nodes, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("transducer: partition %q: want from-to:x|y", val)
			}
			from, to, err := parseWindow(win)
			if err != nil {
				return nil, err
			}
			var group []NodeID
			for _, n := range strings.Split(nodes, "|") {
				group = append(group, NodeID(n))
			}
			p.Partitions = append(p.Partitions, Partition{From: from, To: to, Group: group})
		default:
			return nil, fmt.Errorf("transducer: unknown fault kind %q", key)
		}
	}
	return p, nil
}

// parseWindow parses "from-to" into a half-open clock window.
func parseWindow(s string) (from, to int, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("transducer: window %q: want from-to", s)
	}
	from, err1 := strconv.Atoi(a)
	to, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || from <= 0 || to <= from {
		return 0, 0, fmt.Errorf("transducer: window %q: want 0 < from < to", s)
	}
	return from, to, nil
}

// FaultConfig bounds the faults RandomFaultPlan may generate. The zero
// value generates the empty plan (pure schedule randomization).
type FaultConfig struct {
	// DupProb and DelayProb are passed through to the plan.
	DupProb, DelayProb float64
	// MaxDelay bounds random holds, in clock ticks.
	MaxDelay int
	// Stalls, Crashes and Partitions are how many windows/events of
	// each kind to schedule.
	Stalls, Crashes, Partitions int
	// Window is the clock horizon events are scheduled within
	// (default 30).
	Window int
}

// DefaultFaultConfig is a moderate mix of every fault kind, sized for
// the small networks the experiment matrix runs on.
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{
		DupProb:    0.20,
		DelayProb:  0.25,
		MaxDelay:   6,
		Stalls:     1,
		Crashes:    1,
		Partitions: 1,
		Window:     30,
	}
}

// RandomFaultPlan derives a concrete plan from a seed: stall windows,
// crash events and partition cuts are placed pseudo-randomly within
// the config's clock window. The same (net, seed, cfg) always yields
// the same plan, making whole fault schedules reproducible from one
// integer.
func RandomFaultPlan(net Network, seed int64, cfg FaultConfig) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &FaultPlan{
		Seed:      seed,
		DupProb:   cfg.DupProb,
		DelayProb: cfg.DelayProb,
		MaxDelay:  cfg.MaxDelay,
	}
	win := cfg.Window
	if win <= 0 {
		win = 30
	}
	for i := 0; i < cfg.Stalls; i++ {
		from := 1 + rng.Intn(win)
		p.Stalls = append(p.Stalls, Stall{
			Node: net[rng.Intn(len(net))],
			From: from,
			To:   from + 1 + rng.Intn(win/2+1),
		})
	}
	for i := 0; i < cfg.Crashes; i++ {
		p.Crashes = append(p.Crashes, Crash{
			Node: net[rng.Intn(len(net))],
			At:   1 + rng.Intn(win),
		})
	}
	if len(net) > 1 {
		for i := 0; i < cfg.Partitions; i++ {
			group := make(map[NodeID]bool)
			for _, x := range net {
				if rng.Intn(2) == 0 {
					group[x] = true
				}
			}
			if len(group) == 0 {
				group[net[rng.Intn(len(net))]] = true
			} else if len(group) == len(net) {
				delete(group, net[rng.Intn(len(net))])
			}
			members := make([]NodeID, 0, len(group))
			for x := range group {
				members = append(members, x)
			}
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
			from := 1 + rng.Intn(win)
			p.Partitions = append(p.Partitions, Partition{
				From:  from,
				To:    from + 1 + rng.Intn(win/2+1),
				Group: members,
			})
		}
	}
	return p
}
