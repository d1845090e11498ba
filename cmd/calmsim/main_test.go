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

// asChild runs main on the arguments after "--" and reports whether
// it did: a test that calls it first is the child when calmsim (below)
// starts the test binary on it.
func asChild() bool {
	args := flag.Args()
	if len(args) == 0 {
		return false
	}
	os.Args = append([]string{"calmsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("calmsim", flag.ExitOnError)
	main()
	return true
}

// calmsim runs calmsim on args as a child process of the test binary,
// through the test named test, and returns its stdout and stderr.
func calmsim(test string, args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^" + test + "$", "--"}, args...)...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestOffSchemaInput runs calmsim on an input holding an E fact of the
// wrong arity: the flat engine and the event engine both refuse it
// with the same error before running anything.
func TestOffSchemaInput(t *testing.T) {
	if asChild() {
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
		_, stderr, err := calmsim("TestOffSchemaInput", args...)
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || stderr != want {
			t.Errorf("%s engine: exit %v, stderr %q; want exit status 1, stderr %q", name, err, stderr, want)
		}
	}
}

// TestSeedPrefixRunsUnderFaults: -seed's random prefix also runs under
// a -faults plan, so -steps changes the run it prefixes.
func TestSeedPrefixRunsUnderFaults(t *testing.T) {
	if asChild() {
		return
	}
	runs := map[string]bool{}
	for _, steps := range []string{"0", "12", "40"} {
		out, stderr, err := calmsim("TestSeedPrefixRunsUnderFaults",
			"-query", "tc", "-strategy", "broadcast", "-faults", "random", "-seed", "3", "-steps", steps)
		if err != nil {
			t.Fatalf("-steps %s: %v\n%s", steps, err, stderr)
		}
		if !strings.Contains(out, "CONSISTENT:") {
			t.Errorf("-steps %s: run not consistent:\n%s", steps, out)
		}
		i := strings.Index(out, "transitions: ")
		if i < 0 {
			t.Fatalf("-steps %s: no transitions line:\n%s", steps, out)
		}
		runs[strings.SplitN(out[i:], "\n", 2)[0]] = true
	}
	if len(runs) != 3 {
		t.Errorf("-steps 0, 12 and 40 under -faults gave only the runs %v; the prefix is not run", runs)
	}
}

// TestStrayArgument: calmsim takes no positional argument. A stray one
// (the depth "-explore" no longer takes) is refused with the usage and
// exit status 2 before anything runs.
func TestStrayArgument(t *testing.T) {
	if asChild() {
		return
	}
	if err := checkArgs(nil); err != nil {
		t.Errorf("checkArgs(nil) = %v", err)
	}
	if err := checkArgs([]string{"3", "4"}); err == nil || err.Error() != `unexpected argument "3"` {
		t.Errorf(`checkArgs("3", "4") = %v, want unexpected argument "3"`, err)
	}
	stdout, stderr, err := calmsim("TestStrayArgument", "-query", "qtc", "-nodes", "2", "-explore", "3")
	const want = "calmsim: unexpected argument \"3\"\nUsage of calmsim:\n"
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 || !strings.HasPrefix(stderr, want) || stdout != "" {
		t.Errorf("-explore 3: exit %v, stdout %q, stderr %q; want exit status 2, no output, stderr starting %q", err, stdout, stderr, want)
	}
}
