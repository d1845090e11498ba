package serve

import (
	"fmt"
	"testing"
)

// junkReads is a stream of n read requests, cycling over the four read
// ops, each carrying a rel string no epoch holds and no two share. Only
// query's answer depends on rel, and there it is an empty list.
func junkReads(n int) []Request {
	ops := []string{"query", "facts", "stats", "ping"}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: ops[i%len(ops)], Rel: fmt.Sprintf("junk%d", i)}
	}
	return reqs
}

// TestMemoIgnoresClientChosenStrings pins the memo's size to what the
// epoch holds, not to what clients ask. A key that took in the rel of a
// stats, or stored the empty answer for an unknown rel, would add an
// entry per distinct client string for the life of the epoch — on a
// read-mostly daemon, for ever.
func TestMemoIgnoresClientChosenStrings(t *testing.T) {
	c := newTestCore(t, "E(a,b)\nE(b,c)\n", Options{})
	for _, req := range junkReads(10000) {
		if resp := c.Do(req); !resp.OK {
			t.Fatalf("%+v: %+v", req, resp)
		}
	}
	// The reads that do have distinct answers still memoize.
	rels := []string{"E", "T", "Off"} // OnLoop is empty on a path
	for _, rel := range rels {
		a, b := c.Do(Request{Op: "query", Rel: rel}), c.Do(Request{Op: "query", Rel: rel})
		if len(a.raw) == 0 || &a.raw[0] != &b.raw[0] {
			t.Errorf("query %s: second read did not return the memoized bytes", rel)
		}
	}
	held := len(c.epoch.Load().memo.resps)
	if got, max := held, 4*len(rels); got > max {
		t.Errorf("memo holds %d responses after 10^4 junk reads; want at most %d (read ops x relations present)", got, max)
	}
	if want := 3 + len(rels); held != want { // facts, stats, ping + one query per relation
		t.Errorf("memo holds %d responses, want %d", held, want)
	}
}
