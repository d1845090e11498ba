package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/netsim"
)

// TestBuildNetworkFlagRoundTrip pins the -topology / -nodes / -routing
// flag surface: every catalog name round-trips into a generated
// network of the requested size, the empty topology keeps the classic
// flat naming, and bad values fail loudly.
func TestBuildNetworkFlagRoundTrip(t *testing.T) {
	net, topo, err := buildNetwork("", 3, 0)
	if err != nil || topo != nil {
		t.Fatalf("flat network: topo=%v err=%v", topo, err)
	}
	if len(net) != 3 || net[0] != "n1" || net[2] != "n3" {
		t.Fatalf("flat naming broken: %v", net)
	}

	for _, name := range []string{"ring", "star", "tree", "powerlaw", "wan"} {
		net, topo, err := buildNetwork(name, 50, 7)
		if err != nil {
			t.Fatalf("-topology %s: %v", name, err)
		}
		if topo == nil || topo.Kind.String() != name {
			t.Fatalf("-topology %s resolved to %v", name, topo)
		}
		if len(net) != 50 || string(net[0]) != "n01" {
			t.Fatalf("-topology %s network wrong: len=%d first=%s", name, len(net), net[0])
		}
	}

	if _, _, err := buildNetwork("mesh", 10, 0); err == nil {
		t.Error("-topology mesh should fail")
	}
	if _, _, err := buildNetwork("ring", 1, 0); err == nil {
		t.Error("-topology ring -nodes 1 should fail")
	}

	for _, name := range []string{"broadcast", "neighbors"} {
		r, err := netsim.ParseRouting(name)
		if err != nil || r.String() != name {
			t.Errorf("-routing %s round trip: %v err=%v", name, r, err)
		}
	}
	if _, err := netsim.ParseRouting("flood"); err == nil {
		t.Error("-routing flood should fail")
	}
}

// TestLookupStrategyGossip: the new strategy name is wired and keeps
// its class.
func TestLookupStrategy(t *testing.T) {
	for name, want := range map[string]core.Strategy{
		"broadcast": core.Broadcast,
		"gossip":    core.Gossip,
		"absence":   core.Absence,
		"domainreq": core.DomainRequest,
	} {
		got, err := lookupStrategy(name)
		if err != nil || got != want {
			t.Errorf("lookupStrategy(%s) = %v, %v", name, got, err)
		}
	}
	if _, err := lookupStrategy("carrier"); err == nil {
		t.Error("unknown strategy should fail")
	}
	if _, err := generate.ParseTopoKind(generate.TopoWAN.String()); err != nil {
		t.Errorf("TopoKind String/Parse broken: %v", err)
	}
}

// TestOffSchemaInput runs calmsim, as a child process of the test
// binary, on an input holding an E fact of the wrong arity: the flat
// engine and the event engine both refuse it with the same error
// before running anything. Started with arguments after "--", the test
// is the child and runs main on them.
func TestOffSchemaInput(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"calmsim"}, args...)
		flag.CommandLine = flag.NewFlagSet("calmsim", flag.ExitOnError)
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "f.facts")
	if err := os.WriteFile(path, []byte("E(a) E(a,b)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "calmsim: input fact E(a) not over input schema {E/2}\n"
	for name, args := range map[string][]string{
		"flat":  {"-strategy", "gossip", "-input", path},
		"event": {"-topology", "ring", "-strategy", "gossip", "-routing", "neighbors", "-input", path},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestOffSchemaInput$", "--"}, args...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || stderr.String() != want {
			t.Errorf("%s engine: exit %v, stderr %q; want exit status 1, stderr %q", name, err, stderr.String(), want)
		}
	}
}
