package transducer

import (
	"repro/internal/fact"
)

// This file implements the executable side of Definition 3
// (coordination-freeness): a transducer is coordination-free when,
// besides computing its query on every network and policy, for every
// network and input there is some "ideal" distribution policy under
// which a run computes the full query answer in a prefix consisting of
// heartbeat transitions only (no communication read).

// heartbeatPrefixComputes performs heartbeat transitions of node x
// only and reports whether the network output covers want within
// maxSteps transitions. Heartbeats may send messages but never read
// them, so a true result witnesses the Definition 3 prefix for this
// input and policy.
func heartbeatPrefixComputes(s *Simulation, x NodeID, want *fact.Instance, maxSteps int) (bool, error) {
	covered := want.SubsetOf(s.Output())
	for n := 0; n < maxSteps && !covered; n++ {
		changed, err := s.Heartbeat(x)
		if err != nil {
			return false, err
		}
		covered = want.SubsetOf(s.Output())
		if !changed {
			// The node has stabilized: heartbeat transitions of a
			// deterministic transducer with unchanged state repeat, so
			// more of them cannot help.
			return covered, nil
		}
	}
	return covered, nil
}

// CoordinationFreeWitness checks the Definition 3 condition for one
// network and input: build the simulation under the provided ideal
// policy, run a heartbeat-only prefix at node x, and verify the full
// expected output appears. It then confirms the prefix extends to a
// fair run still producing exactly `want` (no wrong facts), by driving
// the network to quiescence within sim.RoundBound(maxRounds).
func CoordinationFreeWitness(net Network, t *Transducer, ideal Policy, mod Model, input, want *fact.Instance, x NodeID, maxSteps, maxRounds int) (bool, error) {
	sim, err := NewSimulation(net, t, ideal, mod, input)
	if err != nil {
		return false, err
	}
	ok, err := heartbeatPrefixComputes(sim, x, want, maxSteps)
	if err != nil || !ok {
		return ok, err
	}
	// Extend to a full fair run; the final output must be exactly want.
	final, err := sim.RunToQuiescence(sim.RoundBound(maxRounds))
	if err != nil {
		return false, err
	}
	return final.Equal(want), nil
}
