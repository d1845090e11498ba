package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records a span around each call the harness makes
// into a layer. Spans stay in memory and are written as JSONL when the
// run ends. Nothing is added to the program: every span is opened and
// closed from this directory's code, around a public function.
//
// The layered replay sends the same seeded request stream at
// successive depths (over TCP, into Core.HandleLine, into a twin
// Materialization), so spans of one request at different depths do not
// overlap in time. They share the request's op id, and a deeper span
// names the shallower one as its parent: "this is the part of that
// call one layer down". A layer's self time is its spans' total minus
// its children's total.

// span is one recorded call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0: no parent
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"` // since the recorder was made
	EndNs   int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []span
	// index finds a span by name and op id, for a deeper replay to name
	// as parent.
	index map[spanKey]int
}

type spanKey struct {
	name string
	op   int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), index: map[spanKey]int{}}
}

// begin opens a span and returns its id. parent is a span id or 0.
func (r *recorder) begin(name string, op, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartNs: time.Since(r.t0).Nanoseconds()})
	r.index[spanKey{name, op}] = id
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// add files a call that has already been timed as one span.
func (r *recorder) add(name string, op, parent int, start time.Time, d time.Duration) {
	from := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op, StartNs: from, EndNs: from + d.Nanoseconds()})
	r.index[spanKey{name, op}] = len(r.spans)
}

// find returns the id of the span with this name and op id, 0 if none.
func (r *recorder) find(name string, op int) int { return r.index[spanKey{name, op}] }

// time records fn as one span.
func (r *recorder) time(name string, op, parent int, fn func()) time.Duration {
	id := r.begin(name, op, parent)
	fn()
	return r.end(id)
}

// totals sums span durations by name, and for each name the durations
// of its direct children.
func (r *recorder) totals() (total, children map[string]time.Duration) {
	total, children = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range r.spans {
		d := time.Duration(s.EndNs - s.StartNs)
		total[s.Name] += d
		if s.Parent != 0 {
			children[r.spans[s.Parent-1].Name] += d
		}
	}
	return total, children
}

// nestingTolerance is by how much children may exceed their parent
// before the trace is flagged: the replays are separate passes over
// the same stream, so a few percent of disagreement is noise.
const nestingTolerance = 1.05

// nestingFloor is the total below which a span name is too small to
// judge: a reference replay of a few milliseconds is moved 20% by one
// machine stall.
const nestingFloor = 20 * time.Millisecond

// nestingViolations lists every span name whose children's total
// exceeds its own by more than the tolerance: a trace in which the
// parts outweigh the whole does not decompose anything.
func (r *recorder) nestingViolations() []string {
	total, children := r.totals()
	var out []string
	for name, c := range children {
		if total[name] >= nestingFloor && float64(c) > nestingTolerance*float64(total[name]) {
			out = append(out, fmt.Sprintf("trace: children of %s total %v, more than the %v of the spans themselves", name, c, total[name]))
		}
	}
	sort.Strings(out)
	return out
}

func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
