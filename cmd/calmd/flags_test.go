package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asChild runs main on the arguments after the test binary's "--" and
// reports whether it did: a test that calls it first is the child when
// calmd (below) starts the test binary on it.
func asChild() bool {
	args := flag.Args()
	if len(args) == 0 {
		return false
	}
	os.Args = append([]string{"calmd"}, args...)
	flag.CommandLine = flag.NewFlagSet("calmd", flag.ExitOnError)
	main()
	return true
}

// calmd runs calmd on args as a child process of the test binary,
// through the test named test, with stdin as its standard input, and
// returns its stdout and stderr.
func calmd(test, stdin string, args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^" + test + "$", "--"}, args...)...)
	var out, errOut strings.Builder
	cmd.Stdin, cmd.Stdout, cmd.Stderr = strings.NewReader(stdin), &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestCheckFlags is the table of flag combinations calmd refuses.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		shards                          int
		restore, listen, trace, metrics string
		refused                         string // "" = accepted
	}{
		{0, "", "", "", "", ""},
		{0, "s.snap", "", "t.jsonl", "m.json", ""},
		{0, "", "localhost:0", "-", "-", ""},
		{2, "", "", "", "m.json", ""},
		{2, "s.snap", "", "", "", "-restore is not supported with -shards"},
		{2, "", "localhost:0", "t.jsonl", "", "-trace is not supported with -shards"},
		{0, "", "", "-", "", "-trace - needs -listen"},
		{0, "", "", "", "-", "-metrics - needs -listen"},
	} {
		err := checkFlags(c.shards, c.restore, c.listen, c.trace, c.metrics)
		if got := ""; err != nil {
			got = err.Error()
			if c.refused == "" || !strings.HasPrefix(got, c.refused) {
				t.Errorf("%+v: refused with %q", c, got)
			}
		} else if c.refused != "" {
			t.Errorf("%+v: accepted, want %q", c, c.refused)
		}
	}
}

// TestStdoutFlagsNeedListen: without -listen the protocol answers on
// stdout, so "-trace -" and "-metrics -" would interleave events or a
// metrics dump with the responses. calmd refuses both before it reads
// a request, and writes nothing to stdout.
func TestStdoutFlagsNeedListen(t *testing.T) {
	if asChild() {
		return
	}
	prog := writeTempFile(t, "p.dl", testProgram)
	const insert = `{"op":"insert","facts":["E(a,b)","E(b,c)"]}` + "\n"
	for _, flagName := range []string{"-trace", "-metrics"} {
		stdout, stderr, err := calmd("TestStdoutFlagsNeedListen", insert, "-program", prog, flagName, "-")
		want := "calmd: " + flagName + " - needs -listen"
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || stdout != "" || !strings.HasPrefix(stderr, want) {
			t.Errorf("%s -: exit %v, stdout %q, stderr %q; want exit status 1, no stdout, %q", flagName, err, stdout, stderr, want)
		}
	}
}

// TestRefusedFlagsLeaveFilesAlone: a refused flag combination exits
// before calmd opens a file, so a -trace or -metrics file that was
// there keeps its bytes.
func TestRefusedFlagsLeaveFilesAlone(t *testing.T) {
	if asChild() {
		return
	}
	prog := writeTempFile(t, "p.dl", testProgram)
	dir := t.TempDir()
	const old = "bytes from an earlier run\n"
	for name, args := range map[string][]string{
		"trace":   {"-program", prog, "-shards", "2", "-trace", filepath.Join(dir, "trace.jsonl")},
		"restore": {"-restore", prog, "-shards", "2", "-metrics", filepath.Join(dir, "restore.json")},
	} {
		path := args[len(args)-1]
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, err := calmd("TestRefusedFlagsLeaveFilesAlone", "", args...)
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 || !strings.Contains(stderr, "not supported with -shards") {
			t.Errorf("%s: exit %v, stderr %q; want exit status 1 and a refusal", name, err, stderr)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != old {
			t.Errorf("%s: %s now holds %q (%v), want %q", name, filepath.Base(path), got, err, old)
		}
	}
}
