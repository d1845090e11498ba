package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/incr"
	"repro/internal/serve"
)

const testProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
OnLoop(x) :- T(x,x).
Off(x) :- E(x,y), !OnLoop(x).
Off(y) :- E(x,y), !OnLoop(y).
`

const testInput = `
E(a,b)
E(b,c)
E(c,d)
`

// runScript drives a serving core's request loop in-process and
// returns one response line per request line.
func runScript(t *testing.T, core *serve.Core, script []string) []string {
	t.Helper()
	var out strings.Builder
	if err := core.Serve(strings.NewReader(strings.Join(script, "\n")+"\n"), &out); err != nil {
		t.Fatalf("serve: %v", err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != len(script) {
		t.Fatalf("got %d responses for %d requests:\n%s", len(lines), len(script), out.String())
	}
	return lines
}

func mustOK(t *testing.T, line string) serve.Response {
	t.Helper()
	var resp serve.Response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("bad response %q: %v", line, err)
	}
	if !resp.OK {
		t.Fatalf("request failed: %s", line)
	}
	return resp
}

func writeTempFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newCore(t *testing.T, m *incr.Materialization) *serve.Core {
	t.Helper()
	core := serve.NewCore(m, serve.Options{})
	t.Cleanup(core.Close)
	return core
}

// TestEndToEndSnapshotRestart is the acceptance script: load a
// program, apply deltas, query, snapshot, restart a fresh daemon from
// the snapshot, and require byte-identical responses to the same
// queries.
func TestEndToEndSnapshotRestart(t *testing.T) {
	progPath := writeTempFile(t, "prog.dl", testProgram)
	inputPath := writeTempFile(t, "input.facts", testInput)
	snapPath := filepath.Join(t.TempDir(), "state.snap")

	m, err := buildMaterialization(progPath, inputPath, "", incr.Options{})
	if err != nil {
		t.Fatalf("buildMaterialization: %v", err)
	}
	core := newCore(t, m)

	queries := []string{
		`{"op":"query","rel":"T"}`,
		`{"op":"query","rel":"Off"}`,
		`{"op":"query","rel":"OnLoop"}`,
		`{"op":"facts"}`,
		`{"op":"stats"}`,
	}
	session := append([]string{
		`{"op":"ping"}`,
		`{"op":"insert","facts":["E(d,a)"]}`,          // close the cycle: Off drains
		`{"op":"apply","retract":["E(b,c)"]}`,         // cut it again mid-loop
		`{"op":"insert","facts":["E(b,c)","E(d,e)"]}`, // re-add plus a tail
		`{"op":"snapshot","path":"` + snapPath + `"}`,
	}, queries...)
	resp1 := runScript(t, core, session)
	for _, line := range resp1 {
		mustOK(t, line)
	}
	var tResp serve.Response
	if err := json.Unmarshal([]byte(resp1[len(session)-len(queries)]), &tResp); err != nil {
		t.Fatal(err)
	}
	if tResp.Count == nil || *tResp.Count == 0 {
		t.Fatalf("query T returned no facts: %s", resp1[len(session)-len(queries)])
	}

	// Restart: a fresh daemon restored from the snapshot.
	m2, err := buildMaterialization("", "", snapPath, incr.Options{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := m2.Verify(); err != nil {
		t.Fatalf("restored Verify: %v", err)
	}
	core2 := newCore(t, m2)
	resp2 := runScript(t, core2, queries)
	for i, q := range queries {
		want := resp1[len(session)-len(queries)+i]
		if resp2[i] != want {
			t.Errorf("response to %s diverged across restart:\n before: %s\n after:  %s", q, want, resp2[i])
		}
	}

	// The restored daemon keeps maintaining incrementally.
	resp3 := runScript(t, core2, []string{
		`{"op":"retract","facts":["E(d,a)"]}`,
		`{"op":"query","rel":"Off"}`,
	})
	off := mustOK(t, resp3[1])
	if len(off.Facts) == 0 {
		t.Fatalf("Off empty after reopening the cycle: %s", resp3[1])
	}
	if err := m2.Verify(); err != nil {
		t.Fatalf("post-restart Verify: %v", err)
	}
}

// TestProtocolErrors checks that bad requests answer with ok:false and
// leave the daemon serving.
func TestProtocolErrors(t *testing.T) {
	m, err := incr.New(datalog.MustParseProgram(testProgram), nil, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core := newCore(t, m)
	script := []string{
		`{"op":"nonsense"}`,
		`not json at all`,
		`{"op":"query"}`,
		`{"op":"insert","facts":["T(a,b)"]}`, // idb insert rejected
		`{"op":"insert","facts":["E(a"]}`,    // parse error
		`{"op":"snapshot"}`,
		`{"op":"ping"}`,
	}
	resps := runScript(t, core, script)
	for i := 0; i < len(script)-1; i++ {
		var resp serve.Response
		if err := json.Unmarshal([]byte(resps[i]), &resp); err != nil {
			t.Fatalf("bad response %q: %v", resps[i], err)
		}
		if resp.OK || resp.Err == "" {
			t.Errorf("request %s: want error response, got %s", script[i], resps[i])
		}
	}
	mustOK(t, resps[len(script)-1])
	if m.Len() != 0 {
		t.Fatalf("rejected requests mutated state: %d facts", m.Len())
	}
}

// TestSeqZeroOnWire is the protocol round-trip for the omitempty bug:
// a mutating op answered at sequence number 0 (a no-op delta on a
// fresh daemon) must still emit "seq":0 on the wire, while query
// responses must stay seq-free so they remain a pure function of the
// materialized state.
func TestSeqZeroOnWire(t *testing.T) {
	m, err := incr.New(datalog.MustParseProgram(testProgram), nil, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core := newCore(t, m)
	script := []string{
		`{"op":"retract","facts":["E(zz,zz)"]}`, // no-op delta: seq stays 0
		`{"op":"query","rel":"T"}`,
		`{"op":"insert","facts":["E(a,b)"]}`, // first real delta: seq 1
	}
	resps := runScript(t, core, script)

	noop := mustOK(t, resps[0])
	if noop.Seq == nil || *noop.Seq != 0 {
		t.Fatalf("no-op delta on fresh daemon: want seq 0 on the wire, got %s", resps[0])
	}
	if !strings.Contains(resps[0], `"seq":0`) {
		t.Fatalf(`raw response lost "seq":0: %s`, resps[0])
	}

	q := mustOK(t, resps[1])
	if q.Seq != nil || strings.Contains(resps[1], `"seq"`) {
		t.Fatalf("query response must not carry a seq: %s", resps[1])
	}

	ins := mustOK(t, resps[2])
	if ins.Seq == nil || *ins.Seq != 1 {
		t.Fatalf("first applied delta: want seq 1, got %s", resps[2])
	}
}

// TestServeOversizedLine checks a request line over the scanner buffer
// is not a clean shutdown: the client sees a final error response and
// serve returns the scanner error (so the stdin daemon exits non-zero).
func TestServeOversizedLine(t *testing.T) {
	m, err := incr.New(datalog.MustParseProgram(testProgram), nil, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core := newCore(t, m)
	in := `{"op":"ping"}` + "\n" + `{"op":"insert","facts":["` +
		strings.Repeat("x", 17*1024*1024) + `"]}` + "\n"
	var out strings.Builder
	err = core.Serve(strings.NewReader(in), &out)
	if err == nil {
		t.Fatal("serve returned nil for an oversized request line")
	}
	if !strings.Contains(err.Error(), bufio.ErrTooLong.Error()) {
		t.Fatalf("serve error = %v, want it to wrap %v", err, bufio.ErrTooLong)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d response lines, want ping response + final error:\n%s", len(lines), out.String())
	}
	mustOK(t, lines[0])
	var last serve.Response
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatalf("bad final response %q: %v", lines[1], err)
	}
	if last.OK || !strings.Contains(last.Err, bufio.ErrTooLong.Error()) {
		t.Fatalf("final response does not surface the scanner error: %s", lines[1])
	}
}

// TestServeSkipsBlankLines checks request framing tolerates blank
// lines and that responses stay one-per-request.
func TestServeSkipsBlankLines(t *testing.T) {
	m, err := incr.New(datalog.MustParseProgram(testProgram), nil, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	core := newCore(t, m)
	var out strings.Builder
	in := "\n{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n\n"
	if err := core.Serve(strings.NewReader(in), &out); err != nil {
		t.Fatalf("serve: %v", err)
	}
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	var n int
	for sc.Scan() {
		mustOK(t, sc.Text())
		n++
	}
	if n != 2 {
		t.Fatalf("got %d responses, want 2", n)
	}
}
