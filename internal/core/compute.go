package core

import (
	"fmt"

	"repro/internal/fact"
	"repro/internal/monotone"
	"repro/internal/obs"
	"repro/internal/transducer"
)

// Result bundles the network output of a distributed evaluation with
// the run metrics, for the experiment harness and benchmarks.
type Result struct {
	Output  *fact.Instance
	Metrics transducer.Metrics
}

// RunConfig collects the optional knobs of a distributed evaluation.
// The zero value is a plain fair run: round-robin to quiescence with
// the default round bound and no instrumentation.
type RunConfig struct {
	// MaxRounds bounds the fair drive; Simulation.RoundBound picks
	// its default for <= 0 and adds the fault plan's horizon.
	MaxRounds int

	// Plan installs a fault plan between send and buffer: messages may
	// be duplicated or delayed, partitions may hold traffic back, and
	// nodes may stall or crash-restart, all deterministically under
	// the plan's seed. Faults are transient, so the run stays fair.
	Plan *transducer.FaultPlan

	// RandomSteps > 0 prefixes the fair drive with that many random
	// transitions under Seed (Simulation.RandomPrefix, run under the
	// fault plan), exercising run confluence.
	Seed        int64
	RandomSteps int

	// Tracer receives the simulation's structured events (transitions,
	// stalls, crashes, holds, quiescence). Nil disables event tracing.
	Tracer *obs.Tracer

	// Reg, when non-nil, receives the run metrics as sim.* counters
	// plus the sim.quiescence_tick gauge after the run completes.
	Reg *obs.Registry
}

// ComputeRun evaluates the query distributedly: it builds the
// strategy's transducer, distributes the input over the network under
// the policy, drives the simulation per cfg, and returns the network
// output with the run metrics.
func ComputeRun(s Strategy, q monotone.Query, net transducer.Network, pol transducer.Policy, input *fact.Instance, cfg RunConfig) (*Result, error) {
	t, err := Build(s, q)
	if err != nil {
		return nil, err
	}
	sim, err := transducer.NewSimulation(net, t, pol, s.RequiredModel(), input)
	if err != nil {
		return nil, err
	}
	if cfg.Plan != nil {
		sim.SetFaults(cfg.Plan)
	}
	sim.Observe(cfg.Tracer)
	if err := sim.RandomPrefix(cfg.Seed, cfg.RandomSteps); err != nil {
		return nil, err
	}
	out, err := sim.RunToQuiescence(sim.RoundBound(cfg.MaxRounds))
	if err != nil {
		return nil, err
	}
	if cfg.Reg != nil {
		sim.Metrics.Publish(cfg.Reg)
		cfg.Reg.Gauge(obs.SimQuiescenceTick).Set(int64(sim.Clock()))
	}
	return &Result{Output: out, Metrics: sim.Metrics}, nil
}

// Compute is ComputeRun with a plain fair round-robin run to
// quiescence. maxRounds <= 0 selects the default bound.
func Compute(s Strategy, q monotone.Query, net transducer.Network, pol transducer.Policy, input *fact.Instance, maxRounds int) (*Result, error) {
	return ComputeRun(s, q, net, pol, input, RunConfig{MaxRounds: maxRounds})
}

// FaultConfigFor returns the fault mix a strategy is expected to
// survive on queries inside its class. Broadcast and Absence tolerate
// the full default mix including crash-restart, because every message
// they send states a global truth about the input (a fact of I, or
// the absence of one) that remains valid after any node restarts.
// DomainRequest is excluded from crash faults: its Xok certificate
// asserts that the *requester has stored* all facts of a value, a
// statement about volatile state that a crash-restart falsifies — the
// recovery rebroadcast re-delivers the stale certificate and the
// restarted node can output before its data re-arrives. The explorer
// rediscovers that divergence when handed a crashy plan (see the
// fault-model section of DESIGN.md and the X-rows of cmd/experiments).
func FaultConfigFor(s Strategy) transducer.FaultConfig {
	cfg := transducer.DefaultFaultConfig()
	if s == DomainRequest {
		cfg.Crashes = 0
	}
	return cfg
}

// ExploreStrategy fuzzes the strategy against its class boundary: it
// evaluates the query centrally (the oracle), builds the strategy's
// transducer, and drives the adversarial schedule explorer — fair
// baseline, per-node starvation, greedy fresh-value adversaries, and
// seeded random schedules under fault plans — looking for a run that
// outputs a wrong fact or converges to the wrong answer. For a query
// inside the strategy's class every explored schedule must be clean;
// one class up, the explorer rediscovers the known divergences.
func ExploreStrategy(s Strategy, q monotone.Query, net transducer.Network, pol transducer.Policy, input *fact.Instance, opts transducer.ExploreOptions) (*transducer.ScheduleViolation, transducer.ExploreStats, error) {
	want, err := q.Eval(input)
	if err != nil {
		return nil, transducer.ExploreStats{}, fmt.Errorf("core: evaluating %s centrally: %w", q.Name(), err)
	}
	t, err := Build(s, q)
	if err != nil {
		return nil, transducer.ExploreStats{}, err
	}
	return transducer.ExploreSchedules(net, t, pol, s.RequiredModel(), input, want, opts)
}

// VerifyCoordinationFree checks the Definition 3 witness for the
// strategy and query on one network and input: under the strategy's
// ideal policy centered at the first network node, a heartbeat-only
// prefix at that node must already produce Q(I), and the run must
// extend to a fair run computing exactly Q(I).
func VerifyCoordinationFree(s Strategy, q monotone.Query, net transducer.Network, input *fact.Instance) (bool, error) {
	want, err := q.Eval(input)
	if err != nil {
		return false, fmt.Errorf("core: evaluating %s centrally: %w", q.Name(), err)
	}
	t, err := Build(s, q)
	if err != nil {
		return false, err
	}
	x := net[0]
	return transducer.CoordinationFreeWitness(net, t, s.idealPolicy(x), s.RequiredModel(), input, want, x, 4+input.Len(), 0)
}
