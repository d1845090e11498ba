package cluster

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Router speaks the single-node NDJSON protocol over a Cluster: the
// same request lines, the same response shapes, so every existing
// client (calmload, scripts, humans with netcat) works against a
// sharded deployment unchanged. It is a serve.Handler the way a Core
// is — serve.Session, the one request loop, plus a per-connection
// dispatcher — so framing, pipelining, trace identity and encoding are
// the single node's by construction; the router's own are placement,
// the log, and which shards a read consults.
//
// Each connection gets an affinity shard (round-robin at accept) and
// an own-write fence: the global log position of its last write.
// Under a coordination-free plan a read waits only for that fence —
// read-your-writes, nothing more, the weakest sequencing that is
// still sane to program against and exactly what monotone queries
// need (anything later is a superset). Under a fenced plan a read
// waits for its shards to reach the log tip observed at arrival.
//
// A connection's requests are answered synchronously, in arrival
// order; the pipeline window (Options.Serve.Pipeline) bounds how many
// answered responses may wait for a slow client. Concurrency comes
// from connections, and inside the cluster from the shard pumps.
//
// Tracing: when the cluster has a Tracer, each request is a srv.req
// root span with TraceID (connection id, request line number) —
// positional, never random. The write path nests
// cluster.log_append → pump deliveries (detached traces); the
// partitioned read path nests cluster.gather with fanout, merge and
// render children (the last two on a memo miss only).
type Router struct {
	c *Cluster
	// session configures serve.Session: the shard cores' options (one
	// window, one srv.* registry per deployment), the cluster's tracer.
	session serve.Options
	next    atomic.Int64
}

// NewRouter wraps a cluster in the NDJSON protocol.
func NewRouter(c *Cluster) *Router {
	r := &Router{c: c, session: c.opts.Serve}
	r.session.Tracer = c.tracer
	return r
}

// conn is one connection's routing state.
type conn struct {
	r        *Router
	id       int64 // trace connection id (1-based accept order)
	affinity int
	lastG    int // global log position of this connection's last write
}

func (r *Router) newConn() *conn {
	n := len(r.c.shards)
	id := r.next.Add(1)
	return &conn{r: r, id: id, affinity: int(id-1) % n}
}

// handle routes one decoded request. tc is the request's span context
// (disabled when tracing is off).
func (cn *conn) handle(req serve.Request, tc obs.SpanCtx) serve.Response {
	c := cn.r.c
	switch {
	case req.Op == "cluster":
		c.reads.Inc()
		aff := cn.affinity
		if c.plan.Partitioned {
			aff = -1
		}
		logLen, hs := c.Health()
		body := &serve.ClusterBody{
			Shards:     len(c.shards),
			Placement:  string(c.place),
			Plan:       string(c.plan.Coordination),
			Fragment:   string(c.plan.Fragment),
			Log:        logLen,
			Watermarks: make([]int, len(hs)),
			Affinity:   aff,
			Applied:    make([]int, len(hs)),
			Held:       make([]int, len(hs)),
			Lag:        make([]int, len(hs)),
		}
		for j, h := range hs {
			body.Watermarks[j] = h.Watermark
			body.Applied[j] = h.Applied
			body.Held[j] = h.Held
			body.Lag[j] = h.Lag
		}
		return serve.Response{OK: true, Cluster: body}
	case serve.IsWrite(req.Op):
		resp, g := c.submitWrite(req, tc)
		if g > 0 {
			cn.lastG = g
		}
		return resp
	case serve.IsRead(req.Op):
		fence := cn.lastG
		if c.plan.Coordination == CoordFenced {
			// A fenced read is coordination by plan: every consulted
			// shard must reach the log tip observed at arrival.
			fence = c.logLen()
			c.fencedReads.Inc()
			fr := tc.Start(obs.SpanCoordFencedRead, nil)
			fr.SetSeq(fence)
			resp := c.read(cn.affinity, req, fence, fr.Ctx())
			fr.Finish()
			return resp
		}
		return c.read(cn.affinity, req, fence, tc)
	}
	c.errors.Inc()
	return serve.ErrResp("unknown op %q", req.Op)
}

// Serve runs one session over the stream: the shared loop plus this
// connection's dispatcher, which routes synchronously and finishes the
// request span before handing the response over.
func (r *Router) Serve(rd io.Reader, w io.Writer) error {
	cn := r.newConn()
	return serve.Session(rd, w, r.session, cn.id, func(req serve.Request, span obs.ActiveSpan, ch chan<- serve.Response) {
		resp := cn.handle(req, span.Ctx())
		span.Finish()
		ch <- resp
	})
}

var _ serve.Handler = (*Router)(nil)
