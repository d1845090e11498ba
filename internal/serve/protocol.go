// Package serve is calmd's server core: a concurrent, epoch-pinned
// MVCC request loop around one incr.Materialization.
//
// The concurrency model, in one paragraph: all mutating ops
// (insert/retract/apply, plus snapshot as a barrier op) flow through a
// bounded queue into a single writer goroutine, which drains them in
// arrival order as group-committed batches and publishes a fresh
// immutable read epoch (incr.Epoch, the sorted runs it carries) at
// each batch barrier. Read ops (ping/query/facts/stats) never enter
// the queue: each is pinned, at arrival, to the epoch current at that
// moment and evaluated concurrently — any number of reads in flight,
// zero coordination with the writer. This is the CALM result turned
// into a server loop: coordination-free reads proceed against a
// consistent grown state while growth happens elsewhere.
//
// Determinism contract: a query response is a pure function of the
// epoch that served it. Responses to the same query at the same epoch
// are byte-identical — across connections, across restarts from a
// snapshot of that epoch, and against a single-threaded oracle that
// replays the same committed delta sequence (the determinism property
// test does exactly that). Query responses carry no sequence numbers
// by default; a client that needs to know which epoch served it sets
// "epoch":true on the request.
//
// The wire protocol is newline-delimited JSON, one request object per
// line in, one response object per line out, in request order per
// connection (reads complete out of order internally; a per-connection
// ordering buffer re-sequences them). Requests:
//
//	{"op":"ping"}
//	{"op":"insert","facts":["E(a,b)","E(b,c)"]}
//	{"op":"retract","facts":["E(a,b)"]}
//	{"op":"apply","insert":["E(a,b)"],"retract":["E(c,d)"]}
//	{"op":"query","rel":"T"}
//	{"op":"query","rel":"T","epoch":true}
//	{"op":"facts"}
//	{"op":"stats"}
//	{"op":"snapshot","path":"state.snap"}
//
// Responses always carry "ok"; failures carry "error" and leave the
// materialization untouched (delta validation happens before any
// mutation). Mutating ops report the apply stats and the new sequence
// number; snapshot reports the captured sequence number, which is
// always exactly one committed epoch even with writes in flight.
package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/fact"
	"repro/internal/incr"
)

// Request is one protocol request line.
type Request struct {
	Op      string   `json:"op"`
	Facts   []string `json:"facts,omitempty"`
	Insert  []string `json:"insert,omitempty"`
	Retract []string `json:"retract,omitempty"`
	Rel     string   `json:"rel,omitempty"`
	Path    string   `json:"path,omitempty"`
	// Epoch asks query/facts responses to echo the sequence number of
	// the epoch that served them. Off by default so the default
	// response stays a pure function of the fact set alone.
	Epoch bool `json:"epoch,omitempty"`
}

// ApplyBody reports what one mutating op did.
type ApplyBody struct {
	Inserted  int `json:"inserted"`
	Retracted int `json:"retracted"`
	Added     int `json:"added"`
	Removed   int `json:"removed"`
}

// ClusterBody is the "cluster" op response payload: topology and
// progress of a sharded deployment, served by the cluster router.
type ClusterBody struct {
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// Placement names the placement strategy ("hash" or "component").
	Placement string `json:"placement"`
	// Plan names the coordination plan the fragment classifier chose
	// ("coordination-free" or "fenced").
	Plan string `json:"plan"`
	// Fragment is the program's classified Datalog fragment.
	Fragment string `json:"fragment"`
	// Log is the length of the global delta log.
	Log int `json:"log"`
	// Watermarks[j] is the global log prefix shard j has applied.
	Watermarks []int `json:"watermarks"`
	// Affinity is the shard this connection's reads route to in
	// replicated mode (-1 when reads gather from all shards).
	Affinity int `json:"affinity"`
	// Applied[j] is shard j's serving core's published epoch sequence
	// — the live applied-epoch view (/healthz exposes the same data).
	Applied []int `json:"applied,omitempty"`
	// Held[j] counts fault-held deliveries parked on shard j.
	Held []int `json:"held,omitempty"`
	// Lag[j] is shard j's pump lag in log entries: log length minus
	// its watermark.
	Lag []int `json:"lag,omitempty"`
}

// StatsBody is the stats op response payload, read from one epoch.
type StatsBody struct {
	Seq     int `json:"seq"`
	Facts   int `json:"facts"`
	Base    int `json:"base"`
	Derived int `json:"derived"`
}

// Response is one protocol response line. Field order is part of the
// wire format: tests byte-compare responses across restarts and
// against oracle replays.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"error,omitempty"`
	// Seq is a pointer so that sequence number 0 — a no-op delta on a
	// fresh daemon — still reaches the wire; omitempty on a plain int
	// would drop it. Query responses leave it nil on purpose: they must
	// stay a pure function of the epoch state.
	Seq   *int       `json:"seq,omitempty"`
	Apply *ApplyBody `json:"apply,omitempty"`
	Stats *StatsBody `json:"stats,omitempty"`
	Count *int       `json:"count,omitempty"`
	Facts []string   `json:"facts,omitempty"`
	Path  string     `json:"path,omitempty"`
	// Epoch echoes the serving epoch's sequence number when the
	// request asked for it ("epoch":true).
	Epoch *int `json:"epoch,omitempty"`
	// Cluster is the "cluster" op payload (sharded deployments only;
	// single-node daemons never set it, keeping their wire lines
	// byte-identical to previous releases).
	Cluster *ClusterBody `json:"cluster,omitempty"`

	// raw, when non-nil, is this response's already-encoded wire line
	// (no trailing newline). The session loop writes it verbatim
	// instead of re-marshaling; the epoch render cache fills it so a
	// repeated query costs one map hit, not one json.Marshal.
	// Unexported: encoding/json ignores it, so marshaling a Response
	// that carries raw reproduces exactly raw.
	raw []byte
}

// Encode returns the response's wire line (no trailing newline):
// the memoized raw bytes when present, a fresh json.Marshal otherwise.
func (r Response) Encode() ([]byte, error) {
	if r.raw != nil {
		return r.raw, nil
	}
	return json.Marshal(r)
}

// ErrResp builds a protocol error response.
func ErrResp(format string, args ...any) Response {
	return Response{Err: fmt.Sprintf(format, args...)}
}

// IsRead reports whether the op is a read in the protocol's sense:
// answered from a pinned epoch, never entering a write queue.
func IsRead(op string) bool {
	switch op {
	case "ping", "query", "facts", "stats":
		return true
	}
	return false
}

// IsWrite reports whether the op is serialized through a writer.
// Snapshot is a write in the ordering sense: it must observe a commit
// barrier, never a half-applied batch.
func IsWrite(op string) bool {
	switch op {
	case "insert", "retract", "apply", "snapshot":
		return true
	}
	return false
}

// DeltaOf turns an insert, retract or apply request into its delta.
// The error is the text the client is answered with: a core and the
// router both parse a write here, so both refuse it in the same words.
func DeltaOf(req Request) (incr.Delta, error) {
	var d incr.Delta
	var err error
	switch req.Op {
	case "insert":
		d.Insert, err = fact.ParseFacts(req.Facts)
	case "retract":
		d.Retract, err = fact.ParseFacts(req.Facts)
	case "apply":
		if d.Insert, err = fact.ParseFacts(req.Insert); err == nil {
			d.Retract, err = fact.ParseFacts(req.Retract)
		}
	default:
		return d, fmt.Errorf("unknown op %q", req.Op)
	}
	if err != nil {
		return d, fmt.Errorf("bad fact: %v", err)
	}
	return d, nil
}

// View is one committed state as a read response sees it: *incr.Epoch
// on a single node, the union of one pinned epoch per live shard behind
// the router. RelText and FactsText are wire text in canonical SortFacts
// order: the view's own lists, shared, never modified.
type View interface {
	Seq() int
	Len() int
	BaseLen() int
	RelText(rel string) []string
	FactsText() []string
}

// ReadResponse answers a read op from one immutable view: a pure
// function of (view, request), and the only place a query, facts or
// stats response is built. The serving paths memoize it (ReadMemo); the
// determinism and equivalence batteries replay it against oracle epochs
// and byte-compare with what the server and the router produced.
func ReadResponse(v View, req Request) Response {
	switch req.Op {
	case "ping":
		return Response{OK: true}

	case "query":
		if req.Rel == "" {
			return ErrResp("query needs a rel")
		}
		return factsResponse(v, v.RelText(req.Rel), req.Epoch)

	case "facts":
		return factsResponse(v, v.FactsText(), req.Epoch)

	case "stats":
		return Response{OK: true, Stats: &StatsBody{
			Seq:     v.Seq(),
			Facts:   v.Len(),
			Base:    v.BaseLen(),
			Derived: v.Len() - v.BaseLen(),
		}}

	default:
		return ErrResp("unknown op %q", req.Op)
	}
}

// factsResponse answers with a view's rendered fact list as it stands.
func factsResponse(v View, text []string, echoEpoch bool) Response {
	n := len(text)
	resp := Response{OK: true, Count: &n, Facts: text}
	if echoEpoch {
		seq := v.Seq()
		resp.Epoch = &seq
	}
	return resp
}

// ReadMemo memoizes ReadResponse, wire bytes included, over one
// immutable view: the first read of a key pays the view's text and the
// marshal, every later one is a map hit — byte-identical by
// construction. The zero value is ready. The view is passed per call so
// a caller can hang per-request instrumentation on it; every call on
// one memo must pass a view of the same committed state.
type ReadMemo struct {
	mu    sync.Mutex
	resps map[memoKey]Response
}

// memoKey names one distinct read response: the op, plus the relation
// and the epoch echo only where the response depends on them, so that
// strings a client chose and the response ignores add no entries.
type memoKey struct {
	op, rel string
	epoch   bool
}

// Respond is ReadResponse(v, req), memoized. Errors and empty lists are
// not stored: they are cheap to rebuild, and a query for a relation the
// view does not hold must not grow the memo.
func (m *ReadMemo) Respond(v View, req Request) Response {
	key := memoKey{op: req.Op}
	switch req.Op {
	case "query":
		key.rel, key.epoch = req.Rel, req.Epoch
	case "facts":
		key.epoch = req.Epoch
	}
	// One lock across lookup and build: reads that arrive together on a
	// fresh epoch wait for the first to render, not each render the list.
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.resps[key]; ok {
		return r
	}
	resp := ReadResponse(v, req)
	if !resp.OK || (resp.Count != nil && *resp.Count == 0) {
		return resp
	}
	if b, err := json.Marshal(resp); err == nil {
		resp.raw = b
	}
	if m.resps == nil {
		m.resps = make(map[memoKey]Response)
	}
	m.resps[key] = resp
	return resp
}
