package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/incr"
)

// testProgram exercises both maintenance algorithms: T is recursive
// (DRed under deletion), Off is stratified negation over it.
const testProgram = `
T(x,y) :- E(x,y).
T(x,y) :- E(x,z), T(z,y).
OnLoop(x) :- T(x,x).
Off(x) :- E(x,y), !T(y,x).
`

func newTestCore(t testing.TB, input string, opts Options) *Core {
	t.Helper()
	inst, err := fact.ParseInstance(input)
	if err != nil {
		t.Fatalf("parse input: %v", err)
	}
	m, err := incr.New(datalog.MustParseProgram(testProgram), inst, incr.Options{})
	if err != nil {
		t.Fatalf("incr.New: %v", err)
	}
	c := NewCore(m, opts)
	t.Cleanup(c.Close)
	return c
}

// runSession pushes all lines through one pipelined Serve call (the
// strings.Reader input is consumed as fast as the pipeline window
// allows, so requests genuinely overlap) and returns one response
// line per request line.
func runSession(t testing.TB, c *Core, lines ...string) []string {
	t.Helper()
	var out bytes.Buffer
	if err := c.Serve(strings.NewReader(strings.Join(lines, "\n")+"\n"), &out); err != nil {
		t.Fatalf("serve: %v", err)
	}
	got := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(got) != len(lines) {
		t.Fatalf("got %d responses for %d requests:\n%s", len(got), len(lines), out.String())
	}
	return got
}

func decodeResp(t testing.TB, line string) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("bad response line %q: %v", line, err)
	}
	return r
}

func TestReadOps(t *testing.T) {
	c := newTestCore(t, "E(a,b)\nE(b,c)\n", Options{})

	out := runSession(t, c,
		`{"op":"ping"}`,
		`{"op":"query","rel":"T"}`,
		`{"op":"query","rel":"Nope"}`,
		`{"op":"facts"}`,
		`{"op":"stats"}`,
	)

	if r := decodeResp(t, out[0]); !r.OK {
		t.Fatalf("ping: %+v", r)
	}
	q := decodeResp(t, out[1])
	if !q.OK || q.Count == nil || *q.Count != 3 {
		t.Fatalf("query T: want count 3, got %s", out[1])
	}
	wantT := []string{"T(a,b)", "T(a,c)", "T(b,c)"}
	if fmt.Sprint(q.Facts) != fmt.Sprint(wantT) {
		t.Fatalf("query T facts: got %v want %v", q.Facts, wantT)
	}
	if q.Seq != nil || q.Epoch != nil {
		t.Fatalf("query response must not carry seq/epoch unless asked: %s", out[1])
	}
	empty := decodeResp(t, out[2])
	if !empty.OK || *empty.Count != 0 || len(empty.Facts) != 0 {
		t.Fatalf("query of unknown rel should be ok+empty: %s", out[2])
	}
	all := decodeResp(t, out[3])
	if !all.OK || *all.Count != c.m.Len() {
		t.Fatalf("facts: want count %d, got %s", c.m.Len(), out[3])
	}
	st := decodeResp(t, out[4])
	if !st.OK || st.Stats == nil {
		t.Fatalf("stats: %s", out[4])
	}
	if st.Stats.Seq != 1 || st.Stats.Base != 2 || st.Stats.Facts != st.Stats.Base+st.Stats.Derived {
		t.Fatalf("stats fields inconsistent: %+v", *st.Stats)
	}
}

func TestEpochEchoOptIn(t *testing.T) {
	c := newTestCore(t, "E(a,b)\n", Options{})

	out := runSession(t, c,
		`{"op":"query","rel":"T","epoch":true}`,
		`{"op":"insert","facts":["E(b,c)"]}`,
		`{"op":"query","rel":"T","epoch":true}`,
		`{"op":"query","rel":"T"}`,
		`{"op":"facts","epoch":true}`,
	)

	q0 := decodeResp(t, out[0])
	if q0.Epoch == nil || *q0.Epoch != 1 {
		t.Fatalf("epoch echo before write: %s", out[0])
	}
	w := decodeResp(t, out[1])
	if !w.OK || w.Seq == nil || *w.Seq != 2 {
		t.Fatalf("insert: %s", out[1])
	}
	q1 := decodeResp(t, out[2])
	if q1.Epoch == nil || *q1.Epoch != 2 {
		t.Fatalf("epoch echo after write: %s", out[2])
	}
	// The opt-out response must not even mention the field: byte purity.
	if strings.Contains(out[3], "epoch") {
		t.Fatalf("default query leaked epoch: %s", out[3])
	}
	f := decodeResp(t, out[4])
	if f.Epoch == nil || *f.Epoch != 2 {
		t.Fatalf("facts epoch echo: %s", out[4])
	}
}

func TestErrorResponses(t *testing.T) {
	c := newTestCore(t, "", Options{})

	for _, tc := range []struct {
		line string
		want string
	}{
		{`{"op":"query"}`, "query needs a rel"},
		{`{"op":"warble"}`, "unknown op"},
		{`{not json`, "bad request"},
		{`{"op":"insert","facts":["E(a"]}`, "bad fact"},
		{`{"op":"insert","facts":["T(a,b)"]}`, "derived relation"},
		{`{"op":"retract","facts":["E(a,b,c)"]}`, "arity"},
		{`{"op":"snapshot"}`, "snapshot needs a path"},
	} {
		resp := c.HandleLine([]byte(tc.line))
		if resp.OK {
			t.Errorf("%s: expected error, got ok", tc.line)
			continue
		}
		if resp.Err == "" || !strings.Contains(resp.Err, tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.line, resp.Err, tc.want)
		}
	}
	if c.m.Len() != 0 {
		t.Fatalf("failed requests must not mutate: %d facts", c.m.Len())
	}
	// The materialization stays fully usable after every failure.
	if resp := c.HandleLine([]byte(`{"op":"insert","facts":["E(a,b)"]}`)); !resp.OK {
		t.Fatalf("valid insert after failures: %+v", resp)
	}
}

// TestReadYourWritesPipelined pipelines writes immediately followed by
// queries on one connection. Each query must observe every preceding
// write on the same connection (the write fence), even though reads
// never enter the write queue.
func TestReadYourWritesPipelined(t *testing.T) {
	c := newTestCore(t, "", Options{MaxBatch: 4})

	const n = 40
	lines := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		lines = append(lines,
			fmt.Sprintf(`{"op":"insert","facts":["E(n%d,n%d)"]}`, i, i+1),
			`{"op":"query","rel":"E"}`)
	}
	out := runSession(t, c, lines...)
	for i := 0; i < n; i++ {
		w := decodeResp(t, out[2*i])
		if !w.OK || w.Seq == nil {
			t.Fatalf("write %d: %s", i, out[2*i])
		}
		q := decodeResp(t, out[2*i+1])
		if !q.OK || q.Count == nil {
			t.Fatalf("query %d: %s", i, out[2*i+1])
		}
		// Query i follows writes 0..i on this connection: at least i+1
		// edges visible (an epoch may also be newer, never older).
		if *q.Count < i+1 {
			t.Fatalf("query %d saw %d edges, want >= %d (stale epoch: fence broken)", i, *q.Count, i+1)
		}
	}
}

// TestResponseOrderPreserved interleaves ops whose response shapes
// differ and checks responses come back in request order even with a
// pipeline window much smaller than the request count.
func TestResponseOrderPreserved(t *testing.T) {
	c := newTestCore(t, "E(a,b)\n", Options{Pipeline: 2, MaxBatch: 3})

	var lines []string
	for i := 0; i < 50; i++ {
		switch i % 4 {
		case 0:
			lines = append(lines, `{"op":"ping"}`)
		case 1:
			lines = append(lines, fmt.Sprintf(`{"op":"insert","facts":["E(m%d,m%d)"]}`, i, i+1))
		case 2:
			lines = append(lines, `{"op":"query","rel":"E"}`)
		case 3:
			lines = append(lines, `{"op":"stats"}`)
		}
	}
	out := runSession(t, c, lines...)
	for i, line := range out {
		r := decodeResp(t, line)
		if !r.OK {
			t.Fatalf("request %d failed: %s", i, line)
		}
		switch i % 4 {
		case 0:
			if r.Count != nil || r.Seq != nil || r.Stats != nil {
				t.Fatalf("request %d: ping got non-ping response %s", i, line)
			}
		case 1:
			if r.Seq == nil || r.Apply == nil {
				t.Fatalf("request %d: insert got non-write response %s", i, line)
			}
		case 2:
			if r.Count == nil {
				t.Fatalf("request %d: query got non-query response %s", i, line)
			}
		case 3:
			if r.Stats == nil {
				t.Fatalf("request %d: stats got non-stats response %s", i, line)
			}
		}
	}
}

func TestSnapshotPathConfinement(t *testing.T) {
	dir := t.TempDir()
	c := newTestCore(t, "E(a,b)\n", Options{SnapshotDir: dir})

	for _, bad := range []string{"../escape", "sub/file", `sub\file`, ".", ".."} {
		req, _ := json.Marshal(Request{Op: "snapshot", Path: bad})
		if resp := c.HandleLine(req); resp.OK {
			t.Errorf("snapshot path %q must be rejected", bad)
		}
	}
	resp := c.HandleLine([]byte(`{"op":"snapshot","path":"ok.snap"}`))
	if !resp.OK || resp.Seq == nil || *resp.Seq != 1 || resp.Path != "ok.snap" {
		t.Fatalf("snapshot: %+v", resp)
	}
	if _, err := os.Stat(filepath.Join(dir, "ok.snap")); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	// Without confinement arbitrary paths are allowed.
	c2 := newTestCore(t, "E(a,b)\n", Options{})
	p := filepath.Join(dir, "free.snap")
	req, _ := json.Marshal(Request{Op: "snapshot", Path: p})
	if resp := c2.HandleLine(req); !resp.OK {
		t.Fatalf("unconfined snapshot: %+v", resp)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("unconfined snapshot file: %v", err)
	}
}

// TestEpochResponseCacheBytes asserts the memoized fast path is
// byte-identical to a fresh render: the same query twice on one epoch
// must produce identical wire lines, and both must equal the pure
// oracle readResponse marshaled.
func TestEpochResponseCacheBytes(t *testing.T) {
	c := newTestCore(t, "E(a,b)\nE(b,c)\nE(c,a)\n", Options{})

	out := runSession(t, c,
		`{"op":"query","rel":"T","epoch":true}`,
		`{"op":"query","rel":"T","epoch":true}`,
		`{"op":"facts"}`,
		`{"op":"facts"}`,
	)
	if out[0] != out[1] || out[2] != out[3] {
		t.Fatalf("cached and fresh renders differ:\n%s\n%s\n%s\n%s", out[0], out[1], out[2], out[3])
	}
	oracle, err := ReadResponse(c.CurrentEpoch(), Request{Op: "query", Rel: "T", Epoch: true}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != string(oracle) {
		t.Fatalf("served bytes differ from oracle:\n%s\n%s", out[0], oracle)
	}
}

func TestServeReportsScannerError(t *testing.T) {
	c := newTestCore(t, "", Options{})
	long := `{"op":"ping","rel":"` + strings.Repeat("x", maxLine) + `"}` + "\n"
	var out bytes.Buffer
	err := c.Serve(strings.NewReader(`{"op":"ping"}`+"\n"+long), &out)
	if err == nil {
		t.Fatal("oversized line must fail the session")
	}
	resps := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(resps) != 2 {
		t.Fatalf("want ping response plus final error, got %q", out.String())
	}
	if r := decodeResp(t, resps[1]); r.OK || !strings.Contains(r.Err, "read:") {
		t.Fatalf("final response must report the read error: %s", resps[1])
	}
}
