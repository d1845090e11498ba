package transducer

import (
	"math/rand"

	"repro/internal/fact"
)

// DeliverRandom hands the external tests the random-submultiset
// delivery, a lockstep primitive the package keeps to itself.
func DeliverRandom(s *Simulation, x NodeID, rng *rand.Rand) (bool, error) {
	return s.deliverRandom(x, rng)
}

// The helpers below read and write a message buffer in facts, for the
// tests.

func newMultiset() *multiset { return &multiset{} }

func (m *multiset) addFact(f fact.Fact, n int) { m.add(f.RelID(), f.ArgIDs(), n) }

// counted is a fact and a number of its copies.
type counted struct {
	f fact.Fact
	n int
}

// sorted lists a copy of the buffer in its sorted walk's order.
func (m *multiset) sorted() []counted {
	c := m.clone()
	var out []counted
	for _, r := range c.sort() {
		out = append(out, counted{fact.FromIDs(r.rel, c.args(r)), int(r.n)})
	}
	return out
}

// take walks the buffer in sorted order and removes as many copies of
// each fact as fn returns.
func (m *multiset) take(fn func(f fact.Fact, count int) int) int {
	m.sort()
	return m.sweep(func(c msg, args []fact.ID) int { return fn(fact.Alias(c.rel, args), int(c.n)) })
}
