package transducer

import "math/rand"

// DeliverRandom hands the external tests the random-submultiset
// delivery, a lockstep primitive the package keeps to itself.
func DeliverRandom(s *Simulation, x NodeID, rng *rand.Rand) (bool, error) {
	return s.deliverRandom(x, rng)
}
