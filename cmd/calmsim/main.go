// Command calmsim runs one of the paper's coordination-free evaluation
// strategies on a simulated relational transducer network and compares
// the distributed answer with a centralized evaluation. It prints the
// per-node input fragments, the run metrics (transitions, messages),
// the network output, and optionally the Definition 3
// coordination-freeness witness.
//
// Usage:
//
//	calmsim -query winmove -strategy domainreq -nodes 3
//	calmsim -query qtc -strategy domainreq -nodes 4 -input graph.facts
//	calmsim -query tc -strategy broadcast -policy hash -verify
//	calmsim -query tc -strategy broadcast -faults "dup=0.3,delay=0.5:4,crash=n2@9"
//	calmsim -query noloop -strategy absence -faults random -seed 7
//	calmsim -query qtc -strategy domainreq -seeds 500
//	calmsim -query tc -strategy broadcast -trace run.jsonl -metrics metrics.json
//	calmsim -query tc -strategy gossip -topology ring -nodes 100 -routing neighbors
//	calmsim -query tc -strategy gossip -topology powerlaw -nodes 1000 -routing neighbors -seeds 20
//	calmsim -query tc -strategy gossip -topology wan -nodes 256 -routing neighbors -faults random -seed 3
//
// With -topology the run switches to the event-driven large-network
// engine (internal/netsim): nodes are generated from the seeded
// topology catalog (ring | star | tree | powerlaw | wan), -nodes
// scales to 10^2–10^4, and -routing picks between broadcast links and
// topology-neighbor links (neighbors needs the gossip strategy to
// converge, since facts then travel hop by hop).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/fact"
	"repro/internal/generate"
	"repro/internal/monotone"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/transducer"
)

func main() {
	var (
		queryName = flag.String("query", "tc", "query: tc | qtc | noloop | winmove | winmove3v | triangles | clique:K | star:K | duplicate:J")
		strat     = flag.String("strategy", "broadcast", "strategy: broadcast | gossip | absence | domainreq")
		nodes     = flag.Int("nodes", 3, "number of network nodes")
		topology  = flag.String("topology", "", "generate the network from the topology catalog: ring | star | tree | powerlaw | wan (enables the event-driven engine; seeded by -seed)")
		routing   = flag.String("routing", "broadcast", "message routing on a generated topology: broadcast | neighbors (neighbors wants -strategy gossip)")
		policy    = flag.String("policy", "", "policy: hash | firstattr | guided | onenode (default: guided for domainreq, hash otherwise)")
		inputPath = flag.String("input", "", "input instance file (default: a built-in demo instance)")
		seed      = flag.Int64("seed", 0, "seed for every random choice (random scheduler prefix, -faults random, -seeds sweep base); 0 means no random prefix")
		steps     = flag.Int("steps", 25, "length of the random scheduler prefix enabled by -seed")
		faults    = flag.String("faults", "", `fault plan between send and buffer: "random" (seeded via -seed), or a spec like "dup=0.2,delay=0.25:6,stall=n2@3-8,crash=n3@10,part=2-6:n1|n2"`)
		seeds     = flag.Int("seeds", 0, "when > 0, run the adversarial schedule explorer with this many seeded fault schedules (plus starvation and greedy adversaries)")
		verify    = flag.Bool("verify", false, "also check the Definition 3 coordination-freeness witness")
		explore   = flag.Bool("explore", false, "walk every configuration heartbeat/deliver-all schedules reach and check that no output leaves Q(I) and every run ends at it")
		tracePath = flag.String("trace", "", `write structured JSONL events (sim.* transitions/faults, explore.* schedules) to this file ("-" = stdout)`)
		metrics   = flag.String("metrics", "", `write run metrics (sim.* / explore.* counters) as JSON to this file ("-" = stdout)`)
		adminAddr = flag.String("admin", "", "serve the admin endpoint (/metrics /debug/pprof) on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if err := checkArgs(flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "calmsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	q, demo, err := lookupQuery(*queryName)
	if err != nil {
		fatal(err)
	}
	s, err := lookupStrategy(*strat)
	if err != nil {
		fatal(err)
	}

	input := demo
	if *inputPath != "" {
		data, err := os.ReadFile(*inputPath)
		if err != nil {
			fatal(err)
		}
		input, err = fact.ParseInstance(string(data))
		if err != nil {
			fatal(err)
		}
	}
	// Both engines evaluate Q centrally on the input, so the input is
	// checked against Q's schema once, before either runs.
	in := q.InputSchema()
	for _, f := range input.Facts() {
		if !in.Covers(f) {
			fatal(fmt.Errorf("input fact %v not over input schema %v", f, in))
		}
	}

	net, topo, err := buildNetwork(*topology, *nodes, *seed)
	if err != nil {
		fatal(err)
	}
	route, err := netsim.ParseRouting(*routing)
	if err != nil {
		fatal(err)
	}

	polName := *policy
	if polName == "" {
		if s == core.DomainRequest {
			polName = "guided"
		} else {
			polName = "hash"
		}
	}
	pol, err := lookupPolicy(polName, net)
	if err != nil {
		fatal(err)
	}

	var plan *transducer.FaultPlan
	if *faults != "" {
		if *faults == "random" {
			plan = transducer.RandomFaultPlan(net, *seed, transducer.DefaultFaultConfig())
		} else {
			plan, err = transducer.ParseFaultPlan(*faults, *seed)
			if err != nil {
				fatal(err)
			}
		}
	}

	fmt.Printf("query    : %s\n", q.Name())
	fmt.Printf("strategy : %v (class %v)\n", s, s.Class())
	if topo != nil {
		fmt.Printf("topology : %v nodes=%d edges=%d clusters=%d routing=%v (seed %d)\n",
			topo.Kind, topo.Len(), topo.NumEdges(), topo.Clusters(), route, *seed)
	} else {
		fmt.Printf("network  : %v\n", net)
	}
	fmt.Printf("policy   : %s\n", polName)
	if plan != nil {
		fmt.Printf("faults   : %v (seed %d)\n", plan, *seed)
	}
	fmt.Printf("input    : %v\n\n", input)

	if len(net) <= 12 {
		frags := transducer.Dist(pol, net, input)
		for _, x := range net {
			fmt.Printf("fragment at %s: %v\n", x, frags[x])
		}
	}

	var reg *obs.Registry
	if *metrics != "" || *adminAddr != "" {
		reg = obs.NewRegistry()
	}
	admin.StartBackground("calmsim", *adminAddr, reg)
	tracer, closeTrace, err := obs.OpenTrace(*tracePath)
	if err != nil {
		fatal(err)
	}
	// finish flushes -trace and dumps -metrics; every way out of main
	// that is not already a failure runs it.
	finish := obs.Finisher(closeTrace, reg, *metrics, fatal)

	if topo != nil {
		runEventEngine(topo, route, s, q, net, pol, input, plan, tracer, reg, *seed, *seeds)
		finish()
		return
	}

	cfg := core.RunConfig{Plan: plan, Tracer: tracer, Reg: reg}
	if *seed != 0 {
		cfg.Seed, cfg.RandomSteps = *seed, *steps
	}
	res, err := core.ComputeRun(s, q, net, pol, input, cfg)
	if err != nil {
		fatal(err)
	}
	want, err := q.Eval(input)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\ntransitions: %d (heartbeats %d), messages sent: %d, delivered: %d\n",
		res.Metrics.Transitions, res.Metrics.Heartbeats, res.Metrics.MessagesSent, res.Metrics.MessagesDelivered)
	if plan != nil {
		fmt.Printf("faults: duplicated %d, delayed %d, dropped %d, retransmitted %d, crashes %d, stalled steps %d\n",
			res.Metrics.MessagesDuplicated, res.Metrics.MessagesDelayed, res.Metrics.MessagesDropped,
			res.Metrics.MessagesRetransmitted, res.Metrics.Crashes, res.Metrics.StalledSteps)
	}
	fmt.Printf("distributed output: %v\n", res.Output)
	fmt.Printf("central output    : %v\n", want)
	if res.Output.Equal(want) {
		fmt.Println("CONSISTENT: distributed run equals centralized evaluation")
	} else {
		fmt.Println("INCONSISTENT: the query is outside the strategy's class, or a bug")
	}

	if *verify {
		ok, err := core.VerifyCoordinationFree(s, q, net, input)
		if err != nil {
			fatal(err)
		}
		if ok {
			fmt.Println("coordination-free: heartbeat-only witness found under the ideal policy")
		} else {
			fmt.Println("coordination-freeness witness NOT found")
		}
	}

	if *seeds > 0 {
		opts := transducer.ExploreOptions{Seeds: *seeds, Faults: core.FaultConfigFor(s), Tracer: tracer}
		if *seed != 0 {
			opts.BaseSeed = *seed
		}
		v, stats, err := core.ExploreStrategy(s, q, net, pol, input, opts)
		if err != nil {
			fatal(err)
		}
		stats.Publish(reg)
		if v == nil {
			fmt.Printf("explore: %d schedules (%d transitions) clean — starvation, greedy adversaries, %d seeded fault plans\n",
				stats.Schedules, stats.Transitions, *seeds)
		} else {
			fmt.Printf("explore: VIOLATION after %d schedules: %v\n", stats.Schedules, v)
		}
	}

	if *explore {
		tr, err := core.Build(s, q)
		if err != nil {
			fatal(err)
		}
		v, configs, err := transducer.Explore(net, tr, pol, s.RequiredModel(), input, want)
		if err != nil {
			fatal(err)
		}
		if v == nil {
			fmt.Printf("explore: %d configurations, every output inside Q(I), every run ends at it\n", configs)
		} else {
			fmt.Printf("explore: UNSAFE schedule found: %v\n", v)
		}
	}

	finish()
}

func lookupQuery(name string) (monotone.Query, *fact.Instance, error) {
	entry, err := queries.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	in := entry.Query.InputSchema()
	var demo *fact.Instance
	switch {
	case in.Has("E"):
		demo = fact.MustParseInstance(`E(a,b) E(b,c) E(c,a) E(d,d) E(d,e)`)
	case in.Has("Move"):
		demo = fact.MustParseInstance(`Move(a,b) Move(b,a) Move(b,c) Move(d,e)`)
	default:
		// Synthesize a small deterministic instance over the schema
		// (e.g. the R1..Rj schema of the duplicate queries).
		demo = generate.Random(rand.New(rand.NewSource(1)), in, generate.Values("v", 4), 6)
	}
	return entry.Query, demo, nil
}

func lookupStrategy(name string) (core.Strategy, error) {
	switch name {
	case "broadcast":
		return core.Broadcast, nil
	case "gossip":
		return core.Gossip, nil
	case "absence":
		return core.Absence, nil
	case "domainreq":
		return core.DomainRequest, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}

// buildNetwork resolves the -topology / -nodes pair: with no topology
// the classic flat n1..nN network, otherwise a seeded catalog
// topology whose zero-padded node ids double as the network.
func buildNetwork(topology string, nodes int, seed int64) (transducer.Network, *generate.Topology, error) {
	if topology == "" {
		ids := make([]transducer.NodeID, nodes)
		for k := range ids {
			ids[k] = transducer.NodeID(fmt.Sprintf("n%d", k+1))
		}
		net, err := transducer.NewNetwork(ids...)
		return net, nil, err
	}
	kind, err := generate.ParseTopoKind(topology)
	if err != nil {
		return nil, nil, err
	}
	topo, err := generate.NewTopology(kind, nodes, seed)
	if err != nil {
		return nil, nil, err
	}
	return netsim.NetworkOf(topo), topo, nil
}

// runEventEngine drives one event-driven run (and optionally a seeded
// topology fault sweep) on the netsim engine — the -topology path.
func runEventEngine(topo *generate.Topology, route netsim.Routing, s core.Strategy, q monotone.Query,
	net transducer.Network, pol transducer.Policy, input *fact.Instance, plan *transducer.FaultPlan,
	tracer *obs.Tracer, reg *obs.Registry, seed int64, seeds int) {
	tr, err := core.Build(s, q)
	if err != nil {
		fatal(err)
	}
	want, err := q.Eval(input)
	if err != nil {
		fatal(err)
	}
	sim, err := netsim.New(net, tr, pol, s.RequiredModel(), input, netsim.Options{
		Topo: topo, Routing: route, Seed: seed, Want: want,
	})
	if err != nil {
		fatal(err)
	}
	sim.Observe(tracer)
	if plan != nil {
		sim.SetFaults(plan)
	}
	out, err := sim.Run()
	if err != nil {
		fatal(err)
	}
	sim.PublishTo(reg)

	m := sim.RunMetrics()
	fmt.Printf("\nevents: %d (sched ops %d, heap max %d), quiesced at t=%d\n",
		sim.Events(), sim.SchedOps(), sim.HeapMax(), sim.Now())
	fmt.Printf("transitions: %d (heartbeats %d), messages sent: %d, delivered: %d\n",
		m.Transitions, m.Heartbeats, m.MessagesSent, m.MessagesDelivered)
	if plan != nil {
		fmt.Printf("faults: duplicated %d, delayed %d, dropped %d, retransmitted %d, crashes %d, stalled steps %d\n",
			m.MessagesDuplicated, m.MessagesDelayed, m.MessagesDropped,
			m.MessagesRetransmitted, m.Crashes, m.StalledSteps)
	}
	if !sim.Conserved() {
		fmt.Println("WARNING: message conservation broken (engine bug)")
	}
	fmt.Printf("distributed output: %d facts, central: %d facts\n", out.Len(), want.Len())
	if out.Equal(want) {
		fmt.Println("CONSISTENT: distributed run equals centralized evaluation")
	} else {
		fmt.Println("INCONSISTENT: the query is outside the strategy's class, or a bug")
	}

	if seeds > 0 {
		opts := netsim.SweepOptions{Seeds: seeds, Faults: core.FaultConfigFor(s), Tracer: tracer}
		if seed != 0 {
			opts.BaseSeed = seed
		}
		v, stats, err := netsim.Sweep(topo, route, tr, pol, s.RequiredModel(), input, want, opts)
		if err != nil {
			fatal(err)
		}
		stats.Publish(reg)
		if v == nil {
			fmt.Printf("sweep: %d event runs clean (%d events, %d sched ops, heap max %d)\n",
				stats.Schedules, stats.Events, stats.SchedOps, stats.HeapMax)
		} else {
			fmt.Printf("sweep: VIOLATION after %d runs: %v\n", stats.Schedules, v)
		}
	}
}

func lookupPolicy(name string, net transducer.Network) (transducer.Policy, error) {
	switch name {
	case "hash":
		return transducer.HashPolicy(net), nil
	case "firstattr":
		return transducer.FirstAttrPolicy(net), nil
	case "guided":
		return transducer.DomainGuided(transducer.HashAssignment(net)), nil
	case "onenode":
		return transducer.AllToNode(net[0]), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// checkArgs refuses positional arguments: calmsim takes none, so a stray
// one is a mistake to report, not a word to ignore — the "3" of
// "-explore 3", written when -explore took a depth, ran the walk and
// dropped the 3 without a word.
func checkArgs(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "calmsim: %v\n", err)
	os.Exit(1)
}
