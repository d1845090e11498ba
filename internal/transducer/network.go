// Package transducer implements the relational transducer networks of
// Section 4 of the paper, in all three flavors studied there:
//
//   - the original model of Ameloot, Neven & Van den Bussche [13]
//     (system relations Id and All only);
//   - the policy-aware model of Zinn, Green & Ludäscher [32] (adds
//     MyAdom and the policyR relations);
//   - the domain-guided model (policy-aware with a domain-guided
//     distribution policy);
//
// together with the All-free variants of Section 4.3 (the A0/A1/A2
// models) and oblivious transducers (neither Id nor All).
//
// The simulator follows the formal semantics of Section 4.1.3 exactly:
// configurations are per-node states plus multiset message buffers;
// a transition actives one node, delivers a submultiset of its buffer,
// evaluates the four transducer queries on the local data plus system
// facts, and broadcasts the sent facts to every other node. Fair runs
// are approximated by schedulers that guarantee eventual activation
// and delivery, running to quiescence.
package transducer

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fact"
)

// NodeID identifies a computing node. Node identifiers are domain
// values and can occur as data in relations (Section 4.1.1).
type NodeID = fact.Value

// Network is a nonempty finite set of nodes, kept sorted.
type Network []NodeID

// NewNetwork builds a network from node identifiers.
func NewNetwork(nodes ...NodeID) (Network, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("transducer: network must be nonempty")
	}
	seen := make(map[NodeID]bool, len(nodes))
	out := make(Network, 0, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("transducer: duplicate node %s", n)
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// MustNetwork is like NewNetwork but panics on error.
func MustNetwork(nodes ...NodeID) Network {
	n, err := NewNetwork(nodes...)
	if err != nil {
		panic(err)
	}
	return n
}

// Policy is a distribution policy P for a schema σ and a network N: a
// total function from facts over σ to nonempty sets of nodes
// (Section 4.1.1). Implementations must be deterministic.
type Policy interface {
	// Nodes returns the nonempty set of nodes responsible for the fact,
	// for the caller to read only.
	Nodes(f fact.Fact) []NodeID
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(f fact.Fact) []NodeID

// Nodes implements Policy.
func (p PolicyFunc) Nodes(f fact.Fact) []NodeID { return p(f) }

// Dist computes dist_P(I): the distributed database instance mapping
// each node to its fragment of the input.
func Dist(p Policy, net Network, input *fact.Instance) map[NodeID]*fact.Instance {
	h := make(map[NodeID]*fact.Instance, len(net))
	for _, x := range net {
		h[x] = fact.NewInstance()
	}
	input.Each(func(f fact.Fact) bool {
		for _, x := range p.Nodes(f) {
			if frag, ok := h[x]; ok {
				frag.Add(f)
			}
		}
		return true
	})
	return h
}

// HashPolicy assigns each fact to a single node chosen by hashing the
// whole fact; a generic non-domain-guided policy.
func HashPolicy(net Network) Policy {
	one := singletons(net)
	return PolicyFunc(func(f fact.Fact) []NodeID {
		var buf [64]byte
		return one[int(fnv32a(f.AppendKey(buf[:0])))%len(net)]
	})
}

// singletons returns {y} for each node y of net, as one shared slice
// each: a policy's answer is read, not written.
func singletons(net Network) [][]NodeID {
	nodes, one := slices.Clone(net), make([][]NodeID, len(net))
	for i := range nodes {
		one[i] = nodes[i : i+1 : i+1]
	}
	return one
}

// FirstAttrPolicy assigns each fact to a node by hashing its first
// attribute, mirroring the paper's Example 4.1 policy P1 (which
// partitions E by its first attribute). Not domain-guided.
func FirstAttrPolicy(net Network) Policy {
	return PolicyFunc(func(f fact.Fact) []NodeID {
		return []NodeID{net[int(fnv32a(f.Arg(0)))%len(net)]}
	})
}

// AllToNode is the "ideal" policy used by the coordination-freeness
// witnesses: every fact is assigned to the single node x.
func AllToNode(x NodeID) Policy {
	return PolicyFunc(func(f fact.Fact) []NodeID { return []NodeID{x} })
}

// ReplicateAll assigns every fact to every node.
func ReplicateAll(net Network) Policy {
	return PolicyFunc(func(f fact.Fact) []NodeID { return append([]NodeID{}, net...) })
}

// RandomPolicy returns a deterministic pseudo-random policy: each fact
// is assigned to a random nonempty node subset derived from the seed
// and the fact itself (so the policy is a total function, stable
// across calls). Used to sample the "for all distribution policies"
// quantifier of Section 4.1.4.
func RandomPolicy(net Network, seed int64) Policy {
	return PolicyFunc(func(f fact.Fact) []NodeID {
		return randomNodes(net, fmt.Sprintf("%d\x00%s", seed, f.Key()))
	})
}

// randomNodes derives a nonempty node subset from the FNV-1a hash of
// key.
func randomNodes(net Network, key string) []NodeID {
	bits := fnv64a(key)
	var out []NodeID
	for i, x := range net {
		if bits&(1<<uint(i%63)) != 0 {
			out = append(out, x)
		}
		bits = bits*6364136223846793005 + 1442695040888963407
	}
	if len(out) == 0 {
		out = []NodeID{net[int(bits>>32)%len(net)]}
	}
	return out
}

// RandomAssignment returns a deterministic pseudo-random domain
// assignment: each value maps to a random nonempty node subset derived
// from the seed and the value.
func RandomAssignment(net Network, seed int64) DomainAssignment {
	return AssignFunc(func(a fact.Value) []NodeID {
		return randomNodes(net, fmt.Sprintf("%d\x01%s", seed, a))
	})
}

// DomainAssignment is a total function α from domain values to
// nonempty node sets (Section 4.1.1). It induces the domain-guided
// policy P(R(a1..ak)) = α(a1) ∪ ... ∪ α(ak).
type DomainAssignment interface {
	// Assign returns the nonempty set of nodes value a is assigned to,
	// for the caller to read only.
	Assign(a fact.Value) []NodeID
}

// AssignFunc adapts a function to the DomainAssignment interface.
type AssignFunc func(a fact.Value) []NodeID

// Assign implements DomainAssignment.
func (f AssignFunc) Assign(a fact.Value) []NodeID { return f(a) }

// HashAssignment assigns each value to one node by hash.
func HashAssignment(net Network) DomainAssignment {
	one := singletons(net)
	return AssignFunc(func(a fact.Value) []NodeID {
		return one[int(fnv32a(a))%len(net)]
	})
}

// fnv32a and fnv64a are the 32- and 64-bit FNV-1a hashes of s, as
// hash/fnv computes them, without the hasher's allocation.
func fnv32a[T ~string | ~[]byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func fnv64a[T ~string | ~[]byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// AssignAllTo maps every value to the single node x — the ideal
// domain assignment of the Theorem 4.4 coordination-freeness witness.
func AssignAllTo(x NodeID) DomainAssignment {
	return AssignFunc(func(a fact.Value) []NodeID { return []NodeID{x} })
}

// DomainGuided builds the domain-guided distribution policy induced by
// the assignment: a fact goes to every node that any of its values is
// assigned to.
func DomainGuided(alpha DomainAssignment) Policy {
	return PolicyFunc(func(f fact.Fact) []NodeID {
		var out []NodeID
		for i := 0; i < f.Arity(); i++ {
			for _, x := range alpha.Assign(f.Arg(i)) {
				if !slices.Contains(out, x) {
					out = append(out, x)
				}
			}
		}
		slices.Sort(out)
		return out
	})
}

// GuidedPolicy couples a domain-guided policy with its assignment so
// simulations can expose responsibility for single values.
type GuidedPolicy struct {
	Alpha DomainAssignment
	Policy
}

// IsDomainGuidedOn verifies (by exhaustive check over the given value
// set and schema) that the policy behaves as the domain-guided policy
// of some assignment — used in tests. It checks
// P(R(a1..ak)) = ∪ P(R(ai,...,ai)) for all tuples over the values.
func IsDomainGuidedOn(p Policy, schema fact.Schema, values []fact.Value) bool {
	singleton := func(rel string, ar int, a fact.Value) map[NodeID]bool {
		args := make([]fact.Value, ar)
		for i := range args {
			args[i] = a
		}
		set := make(map[NodeID]bool)
		for _, x := range p.Nodes(fact.New(rel, args...)) {
			set[x] = true
		}
		return set
	}
	ids := make([]fact.ID, len(values))
	for i, v := range values {
		ids[i] = fact.Intern(v)
	}
	guided := true
	for rel, ar := range schema {
		// The assignment candidate α(a) is read off the all-a fact.
		fact.EachTuple(ids, ar, func(args []fact.ID) bool {
			f := fact.FromIDs(fact.InternString(rel), args)
			want := make(map[NodeID]bool)
			for i := 0; i < ar; i++ {
				for x := range singleton(rel, ar, f.Arg(i)) {
					want[x] = true
				}
			}
			got := make(map[NodeID]bool)
			for _, x := range p.Nodes(f) {
				got[x] = true
			}
			if len(got) != len(want) {
				guided = false
			}
			for x := range want {
				guided = guided && got[x]
			}
			return guided
		})
		if !guided {
			return false
		}
	}
	return true
}
