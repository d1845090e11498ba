package cluster

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/serve"
)

// fuzz state: one long-lived partitioned cluster shared across fuzz
// iterations (the fuzz engine calls the target sequentially within a
// process), rebuilt when accumulated inserts grow the log too large.
// Partitioned mode is the interesting target — it exercises delta
// placement, component merging, and the scatter/gather merge on every
// routed request.
var (
	fuzzMu sync.Mutex
	fuzzR  *Router
)

func fuzzRouter(t *testing.T) *Router {
	t.Helper()
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	if fuzzR != nil && fuzzR.c.logLen() > 20000 {
		fuzzR.c.Close()
		fuzzR = nil
	}
	if fuzzR == nil {
		inst, err := fact.ParseInstance("E(a,b)\nE(b,a)\nE(x,y)\n")
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(datalog.MustParseProgram(tcProgram), inst, Options{
			Shards:    3,
			Placement: PlaceComponent,
		})
		if err != nil {
			t.Fatal(err)
		}
		fuzzR = NewRouter(c)
	}
	return fuzzR
}

// FuzzRouteRequest throws arbitrary request lines at the router's
// full decode/route/scatter/gather path on a fresh connection each
// iteration. Whatever the input, the router must neither panic nor
// deadlock, every response must be well-formed (ok xor error,
// marshalable), a gathered facts list must be strictly sorted with no
// duplicates (the Theorem 5.3 disjoint union, observable), count must
// equal the list length, and the cluster must keep serving afterwards.
func FuzzRouteRequest(f *testing.F) {
	for _, s := range fuzzSeedLines {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		r := fuzzRouter(t)
		resp := routeLine(t, r, line)
		if resp.OK && resp.Err != "" {
			t.Fatalf("response both ok and error: %+v", resp)
		}
		if !resp.OK && resp.Err == "" {
			t.Fatalf("failed response carries no error: %+v", resp)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("unmarshalable response: %v", err)
		}
		if resp.Facts != nil {
			if resp.Count == nil || *resp.Count != len(resp.Facts) {
				t.Fatalf("count disagrees with facts length: %+v", resp)
			}
			var prev fact.Fact
			for i, s := range resp.Facts {
				fc, err := fact.ParseFact(s)
				if err != nil {
					t.Fatalf("gathered fact %q does not parse: %v", s, err)
				}
				if i > 0 && prev.Compare(fc) >= 0 {
					t.Fatalf("gathered facts unsorted or duplicated at %d: %q >= %q", i, resp.Facts[i-1], s)
				}
				prev = fc
			}
		}
		// Liveness: the router still answers after whatever happened.
		if ping := routeLine(t, r, []byte(`{"op":"ping"}`)); !ping.OK {
			t.Fatalf("router dead after input %q: %+v", line, ping)
		}
	})
}

// routeLine runs one line through a fresh router connection — the
// shared session loop and the router's dispatcher — and returns its
// response. The loop frames on newlines and skips blank lines, so a
// fuzzed line may be answered more than once or not at all: the last
// answer is returned, a ping's standing in for none.
func routeLine(t *testing.T, r *Router, line []byte) serve.Response {
	t.Helper()
	var out bytes.Buffer
	if err := r.Serve(bytes.NewReader(line), &out); err != nil {
		t.Fatalf("router serve %q: %v", line, err)
	}
	resp := serve.Response{OK: true}
	if lines := bytes.Split(bytes.TrimRight(out.Bytes(), "\n"), []byte("\n")); len(out.Bytes()) > 0 {
		resp = serve.Response{}
		if err := json.Unmarshal(lines[len(lines)-1], &resp); err != nil {
			t.Fatalf("router answered %q with a non-response %q: %v", line, lines[len(lines)-1], err)
		}
	}
	return resp
}

// fuzzSeedLines is the in-code seed corpus, mirrored as files under
// testdata/fuzz/FuzzRouteRequest so `go test` always runs them.
var fuzzSeedLines = []string{
	// every routed op, well-formed
	`{"op":"ping"}`,
	`{"op":"query","rel":"T"}`,
	`{"op":"query","rel":"T","epoch":true}`,
	`{"op":"query","rel":"Nope"}`,
	`{"op":"facts"}`,
	`{"op":"stats"}`,
	`{"op":"cluster"}`,
	`{"op":"insert","facts":["E(c,d)"]}`,
	`{"op":"retract","facts":["E(c,d)"]}`,
	`{"op":"apply","insert":["E(p,q)"],"retract":["E(x,y)"]}`,
	// bridge write: forces a component merge and possibly a migration
	`{"op":"insert","facts":["E(b,x)"]}`,
	// rejections every router layer must produce
	`{"op":"apply","insert":["E(m,n)"],"retract":["E(m,n)"]}`,
	`{"op":"insert","facts":["T(a,b)"]}`,
	`{"op":"insert","facts":["E(a)"]}`,
	`{"op":"snapshot","path":"x"}`,
	`{"op":"query"}`,
	`{"op":"frobnicate"}`,
	`{`,
	`not json at all`,
	`{"op":42}`,
	``,
}
