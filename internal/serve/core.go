package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incr"
	"repro/internal/obs"
)

// Options configures a Core. The zero value is usable: defaults below.
type Options struct {
	// WriteQueue bounds the shared write queue (default 256). A full
	// queue blocks dispatch — backpressure propagates to the client
	// through the connection's pipeline window and TCP flow control.
	WriteQueue int
	// MaxBatch caps how many write ops one group commit drains
	// (default 64). Larger batches amortize epoch publication; smaller
	// ones bound write latency under sustained load.
	MaxBatch int
	// Pipeline bounds in-flight requests per connection (default 64):
	// the reader stops consuming input once this many responses are
	// outstanding, so a slow-reading client cannot queue unbounded
	// work.
	Pipeline int
	// SnapshotDir, when non-empty, confines snapshot ops to bare file
	// names resolved inside this directory. Leave empty to allow
	// arbitrary paths (the CLI default).
	SnapshotDir string
	// Reg, when non-nil, receives the srv.* metrics (see
	// internal/obs names.go).
	Reg *obs.Registry
	// Tracer, when non-nil, records request-scoped spans: srv.req per
	// request with srv.queue_wait/srv.apply/srv.commit (writes),
	// srv.render (reads) and coord.fence (read-your-writes waits)
	// children, reaching into incr.apply. A deterministic tracer
	// suppresses wall-clock fields, so serial single-connection
	// sessions produce byte-identical span streams (DESIGN.md §13).
	Tracer *obs.Tracer
}

func (o Options) writeQueue() int {
	if o.WriteQueue > 0 {
		return o.WriteQueue
	}
	return 256
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return 64
}

func (o Options) pipeline() int {
	if o.Pipeline > 0 {
		return o.Pipeline
	}
	return 64
}

// writeTask is one queued mutating op and the slot its response goes
// to. The response channel is 1-buffered so the writer never blocks
// completing a task, even when the issuing connection has died. done
// is closed once the epoch containing the write is published (or the
// task is refused): later reads on the same connection fence on it so
// a client always reads its own writes.
type writeTask struct {
	req  Request
	resp chan<- Response
	done chan struct{}
	// enq is the dispatch time srv.write_ns is measured from (zero
	// when metrics are disabled).
	enq time.Time
	// span is the request's srv.req span (disabled when tracing is
	// off); the writer finishes it before completing the response, so
	// a serially driven session records spans in a deterministic
	// order. qspan is the srv.queue_wait phase, open from enqueue to
	// writer pickup.
	span  obs.ActiveSpan
	qspan obs.ActiveSpan
}

// epochState is one published epoch plus the memo of its read
// responses. Epochs are immutable, so each distinct read renders at
// most once per epoch no matter how many requests ask.
type epochState struct {
	ep   *incr.Epoch
	memo ReadMemo
}

// Core is the serving core: one materialization, one writer
// goroutine, one atomically-published current epoch. Create with
// NewCore; the Core owns the materialization (single-writer MVCC) and
// nothing else may mutate or read it while the Core is open.
type Core struct {
	m    *incr.Materialization
	opts Options

	epoch  atomic.Pointer[epochState]
	writeq chan *writeTask
	quit   chan struct{}
	done   chan struct{}
	closed sync.Once

	// connSeq hands out serving-connection ids — the Conn half of
	// every request TraceID, so trace ids are positional, never random.
	connSeq atomic.Int64

	reg        *obs.Registry
	requests   *obs.Counter
	reads      *obs.Counter
	writes     *obs.Counter
	errors     *obs.Counter
	commits    *obs.Counter
	snapshots  *obs.Counter
	coordFence *obs.Counter
	epochG     *obs.Gauge
	lastCommit *obs.Gauge
	batchH     *obs.LatencyHist
	queueH     *obs.LatencyHist
	readNs     *obs.LatencyHist
	writeNs    *obs.LatencyHist
	queueNs    *obs.LatencyHist
	applyNs    *obs.LatencyHist
	commitNs   *obs.LatencyHist
	renderNs   *obs.LatencyHist
	fenceNs    *obs.LatencyHist
}

// NewCore wraps the materialization in a serving core, publishes the
// initial epoch, and starts the writer goroutine. Callers must Close
// the core after all sessions have returned.
func NewCore(m *incr.Materialization, opts Options) *Core {
	c := &Core{
		m:      m,
		opts:   opts,
		writeq: make(chan *writeTask, opts.writeQueue()),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),

		reg:        opts.Reg,
		requests:   opts.Reg.Counter(obs.SrvRequests),
		reads:      opts.Reg.Counter(obs.SrvReads),
		writes:     opts.Reg.Counter(obs.SrvWrites),
		errors:     opts.Reg.Counter(obs.SrvErrors),
		commits:    opts.Reg.Counter(obs.SrvCommits),
		snapshots:  opts.Reg.Counter(obs.SrvSnapshots),
		coordFence: opts.Reg.Counter(obs.CoordFenceWaits),
		epochG:     opts.Reg.Gauge(obs.SrvEpoch),
		lastCommit: opts.Reg.Gauge(obs.SrvLastCommitUnixNs),
		batchH:     opts.Reg.Latency(obs.SrvBatchWrites),
		queueH:     opts.Reg.Latency(obs.SrvQueueDepth),
		readNs:     opts.Reg.Latency(obs.SrvReadNs),
		writeNs:    opts.Reg.Latency(obs.SrvWriteNs),
		queueNs:    opts.Reg.Latency(obs.SrvQueueWaitNs),
		applyNs:    opts.Reg.Latency(obs.SrvApplyNs),
		commitNs:   opts.Reg.Latency(obs.SrvCommitNs),
		renderNs:   opts.Reg.Latency(obs.SrvRenderNs),
		fenceNs:    opts.Reg.Latency(obs.CoordFenceWaitNs),
	}
	c.publish()
	go c.writer()
	return c
}

// CurrentEpoch returns the epoch a read arriving now is pinned to.
func (c *Core) CurrentEpoch() *incr.Epoch { return c.epoch.Load().ep }

// Seq returns the latest published epoch's sequence number.
func (c *Core) Seq() int { return c.CurrentEpoch().Seq() }

// Close stops the writer goroutine and waits for it to exit,
// answering any writes that raced the shutdown with an error. All
// sessions must have returned first: Close does not interrupt
// in-flight Serve loops.
func (c *Core) Close() {
	c.closed.Do(func() { close(c.quit) })
	<-c.done
}

// publish makes the materialization's committed state the current
// read epoch. Skipped when the materialization is corrupt (a failed
// maintenance phase): reads then keep answering from the last good
// epoch while every later write fails fast.
func (c *Core) publish() {
	if c.m.Err() != nil {
		return
	}
	if cur := c.epoch.Load(); cur != nil && cur.ep.Seq() == c.m.Seq() {
		return
	}
	e := c.m.Epoch()
	c.epoch.Store(&epochState{ep: e})
	c.epochG.Set(int64(e.Seq()))
	if c.reg != nil {
		// Not a span: a gauge holding the wall-clock instant of the
		// publication, for the epoch age a scrape derives from it.
		c.lastCommit.Set(time.Now().UnixNano())
	}
}

// writer is the single mutation loop: it drains the write queue in
// batches, applies every op in arrival order, and publishes one fresh
// epoch per batch (group commit). Responses are completed only after
// the epoch containing the write is published, so a client that has
// seen "seq":N is guaranteed any later read it issues pins an epoch
// >= N.
func (c *Core) writer() {
	defer close(c.done)
	for {
		select {
		case t := <-c.writeq:
			c.commitBatch(t)
		case <-c.quit:
			for {
				select {
				case t := <-c.writeq:
					t.qspan.Finish()
					t.span.Finish()
					close(t.done)
					t.resp <- ErrResp("server closed")
				default:
					return
				}
			}
		}
	}
}

func (c *Core) commitBatch(first *writeTask) {
	c.queueH.Observe(int64(len(c.writeq)) + 1)
	batch := []*writeTask{first}
	max := c.opts.maxBatch()
drain:
	for len(batch) < max {
		select {
		case t := <-c.writeq:
			batch = append(batch, t)
		default:
			break drain
		}
	}

	resps := make([]Response, len(batch))
	writes := 0
	for i, t := range batch {
		t.qspan.Finish()
		if t.req.Op == "snapshot" {
			// Commit barrier: everything applied so far in this batch
			// becomes visible first, then the snapshot captures exactly
			// that committed epoch.
			c.publish()
			resps[i] = c.doSnapshot(t.req)
			continue
		}
		as := t.span.Ctx().Start(obs.SpanApply, c.applyNs)
		resps[i] = c.applyWrite(t.req, as.Ctx())
		as.SetSeq(c.m.Seq()).Finish()
		writes++
	}
	// The commit span is parented to the batch leader's trace: group
	// commit is one shared barrier, attributed to the request that
	// opened the batch.
	cs := first.span.Ctx().Start(obs.SpanCommit, c.commitNs)
	c.publish()
	epochSeq := c.epoch.Load().ep.Seq()
	cs.SetEpoch(epochSeq).Attr("writes", writes).Finish()
	c.commits.Inc()
	c.batchH.Observe(int64(writes))

	for i, t := range batch {
		if !resps[i].OK {
			c.errors.Inc()
		}
		// Finish the request span before completing the response, so a
		// serial session's span stream is deterministic: the client
		// cannot observe the response until its spans are recorded.
		// The fence opens before the response is handed over, for the
		// same reason: the epoch is already published, so a serial
		// client's next read must find the fence open and not be
		// counted as having waited for it.
		t.span.SetEpoch(epochSeq).Finish()
		close(t.done)
		t.resp <- resps[i]
		if !t.enq.IsZero() {
			c.writeNs.Observe(time.Since(t.enq).Nanoseconds())
		}
	}
}

// applyWrite validates and applies one mutating op against the
// materialization. Runs only on the writer goroutine. tc nests the
// incr.apply span under the request's srv.apply span.
func (c *Core) applyWrite(req Request, tc obs.SpanCtx) Response {
	d, err := DeltaOf(req)
	if err != nil {
		return ErrResp("%v", err)
	}
	st, err := c.m.ApplyTraced(d, tc)
	if err != nil {
		return ErrResp("%v", err)
	}
	seq := c.m.Seq()
	return Response{OK: true, Seq: &seq, Apply: &ApplyBody{
		Inserted:  st.BaseInserted,
		Retracted: st.BaseRetracted,
		Added:     st.DerivedAdded,
		Removed:   st.DerivedRemoved,
	}}
}

// doSnapshot writes the committed state to the requested path. Runs
// only on the writer goroutine, at a commit barrier, so the snapshot
// is exactly one committed epoch — never a torn batch. The response
// reports the captured sequence number.
func (c *Core) doSnapshot(req Request) Response {
	path, err := c.snapshotPath(req.Path)
	if err != nil {
		return ErrResp("%v", err)
	}
	if err := writeFileAtomic(path, c.m.Snapshot); err != nil {
		return ErrResp("%v", err)
	}
	c.snapshots.Inc()
	seq := c.m.Seq()
	return Response{OK: true, Seq: &seq, Path: req.Path}
}

// writeFileAtomic replaces the file at path with what write produces,
// or leaves it exactly as it was: the bytes go to a temporary file in
// the same directory (path + ".tmp", created like os.Create would; only
// the writer goroutine snapshots, so the name is never contended), are
// synced, and only then renamed over path. A failed snapshot — a
// poisoned materialization refuses before its first byte — must not
// cost the last good one.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name()) // best effort: the error being returned is the one that matters
	}
	return err
}

// snapshotPath resolves a requested snapshot path under the
// configured confinement directory, if any. With SnapshotDir set only
// bare file names are accepted — no separators, no "..", nothing
// absolute — so an untrusted request stream cannot write outside it.
func (c *Core) snapshotPath(p string) (string, error) {
	if p == "" {
		return "", fmt.Errorf("snapshot needs a path")
	}
	if c.opts.SnapshotDir == "" {
		return p, nil
	}
	if strings.ContainsAny(p, `/\`) || p == "." || p == ".." {
		return "", fmt.Errorf("snapshot path %q must be a bare file name", p)
	}
	return filepath.Join(c.opts.SnapshotDir, p), nil
}

// dispatch routes one decoded request: reads are pinned to the
// current epoch and evaluated on their own goroutine; writes enqueue
// to the writer (blocking when the queue is full — that block IS the
// backpressure). The response lands in ch, which must be 1-buffered.
//
// fence is the done channel of the most recent write dispatched on
// the same connection (nil when none): a read first waits for that
// write's epoch to publish before pinning, so each connection reads
// its own writes even when it pipelines queries behind mutations.
// dispatch returns the fence later requests on the connection should
// carry — the new write's, or the caller's unchanged.
//
// span is the request's srv.req span (disabled when tracing is off).
// dispatch owns it from here: phase spans nest under it and it is
// finished before the response is delivered, so a serially driven
// session observes a deterministic span stream.
func (c *Core) dispatch(req Request, ch chan<- Response, fence <-chan struct{}, span obs.ActiveSpan) <-chan struct{} {
	switch {
	case IsRead(req.Op):
		c.reads.Inc()
		var start time.Time
		if c.reg != nil {
			// Not a span: srv.read_ns runs from dispatch to the response,
			// across the fence wait and the render, which are its spans.
			start = time.Now()
		}
		ready := fence == nil
		if !ready {
			select {
			case <-fence:
				ready = true
			default:
			}
		}
		if ready {
			// Fast path: no same-connection write outstanding, so the
			// read runs inline on the session goroutine — no spawn, no
			// handoff. The common case on read-heavy streams.
			ch <- c.readAt(c.epoch.Load(), req, span)
			if !start.IsZero() {
				c.readNs.Observe(time.Since(start).Nanoseconds())
			}
			return fence
		}
		go func() {
			// Read-your-writes: pin only after the write's epoch
			// publishes. The wait is coordination — count it and span
			// it as coord.fence.
			fsp := span.Ctx().Start(obs.SpanCoordFence, c.fenceNs)
			<-fence
			fsp.Finish()
			c.coordFence.Inc()
			ch <- c.readAt(c.epoch.Load(), req, span)
			if !start.IsZero() {
				c.readNs.Observe(time.Since(start).Nanoseconds())
			}
		}()
		return fence

	case IsWrite(req.Op):
		c.writes.Inc()
		t := &writeTask{req: req, resp: ch, done: make(chan struct{}), span: span}
		if c.reg != nil {
			// Not a span: srv.write_ns runs from dispatch to the
			// response, across queue wait, apply and commit, which are
			// its spans, and the writer completes it on another goroutine.
			t.enq = time.Now()
		}
		t.qspan = span.Ctx().Start(obs.SpanQueueWait, c.queueNs)
		select {
		case c.writeq <- t:
		case <-c.quit:
			c.errors.Inc()
			t.qspan.Finish()
			span.Finish()
			close(t.done)
			ch <- ErrResp("server closed")
		}
		return t.done

	default:
		c.errors.Inc()
		span.Finish()
		ch <- ErrResp("unknown op %q", req.Op)
		return fence
	}
}

// readAt answers one read op against a pinned epoch state, serving
// memoized responses from the epoch's render cache. The render phase
// is recorded as a srv.render child span; the request span finishes
// here, before the response is delivered.
func (c *Core) readAt(es *epochState, req Request, span obs.ActiveSpan) Response {
	rs := span.Ctx().Start(obs.SpanRender, c.renderNs)
	resp := es.memo.Respond(es.ep, req)
	if !resp.OK {
		c.errors.Inc()
	}
	seq := es.ep.Seq()
	rs.SetEpoch(seq).Finish()
	span.SetEpoch(seq).Finish()
	return resp
}

// Serve runs one pipelined session (session.go) over the stream: the
// shared loop plus this connection's dispatcher, whose only state is
// the read-your-writes fence of the connection's last write.
func (c *Core) Serve(r io.Reader, w io.Writer) error {
	var fence <-chan struct{}
	return Session(r, w, c.opts, c.connSeq.Add(1), func(req Request, span obs.ActiveSpan, ch chan<- Response) {
		fence = c.dispatch(req, ch, fence, span)
	})
}

// HandleLine decodes one request line, dispatches it, and waits for
// the response — the synchronous single-request entry point (the fuzz
// harness drives it; sessions use the pipelined loop in session.go).
func (c *Core) HandleLine(line []byte) Response {
	ch := make(chan Response, 1)
	dispatchLine(line, obs.ActiveSpan{}, ch, c.requests, c.errors, func(req Request, span obs.ActiveSpan, ch chan<- Response) {
		c.dispatch(req, ch, nil, span)
	})
	return <-ch
}

// Do dispatches one already-decoded request and waits for the
// response — the typed twin of HandleLine. A write returns only after
// the epoch containing it is published, so a caller that sequences
// Do(write) before Do(read) always reads its own write. The cluster
// layer's delta pumps and gather paths are built on this entry point.
func (c *Core) Do(req Request) Response {
	return c.DoCtx(req, obs.SpanCtx{})
}

// DoCtx is Do with a trace context: the request is recorded as a
// srv.req span under tc, with the usual phase children. The cluster's
// shard pumps use it so a delivery traces through the core it lands
// on.
func (c *Core) DoCtx(req Request, tc obs.SpanCtx) Response {
	ch := make(chan Response, 1)
	sp := tc.Start(obs.SpanReq, nil)
	sp.Attr("op", req.Op)
	c.dispatch(req, ch, nil, sp)
	return <-ch
}
