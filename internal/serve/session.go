package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// This file is the per-connection request loop, the only one in the
// repository: a Core and the cluster router both serve by calling
// Session with their own Dispatch. One Session call runs two goroutines
// over the stream:
//
//   - the reader (the calling goroutine) takes a window slot, scans a
//     request line, reserves an ordering slot for it, decodes it and
//     hands it to the dispatcher — a core answers reads inline or on
//     goroutines pinned to the arrival epoch and queues writes to its
//     writer, the router answers synchronously;
//   - the responder drains the ordering slots IN REQUEST ORDER,
//     waiting on each response as needed, and flushes opportunistically
//     (whenever no further response is immediately pending).
//
// The pipeline window is a semaphore, taken before a line is scanned
// and given back once its response is written: with Pipeline requests
// unanswered the reader stops consuming input, so a client that
// pipelines faster than it reads is throttled by its own socket —
// bounded memory per connection, no matter how the client behaves.
//
// Error handling mirrors the single-threaded daemon exactly: malformed
// JSON answers an error response and the loop continues; a scanner
// failure (e.g. a line over the 16MiB buffer) is not a clean shutdown —
// the client gets one final error response before the stream closes
// and the error propagates to the caller, so the stdio daemon exits
// non-zero.

const maxLine = 16 * 1024 * 1024

// Dispatch answers one decoded request on one connection. It owes the
// session two things: exactly one response delivered to ch (which is
// 1-buffered, so delivering never blocks), now or later, and the
// request's span — disabled when tracing is off — finished before that
// response is handed over, so a client that has seen response N finds
// every span of request N recorded. A Dispatch is called from the
// session's reader goroutine only, one request at a time in arrival
// order, and so may keep per-connection state without locking.
type Dispatch func(req Request, span obs.ActiveSpan, ch chan<- Response)

// dispatchLine decodes one request line and hands it to d; a line that
// is not a request is answered here. span is the request's srv.req
// span, stamped with the decoded op and rel.
func dispatchLine(line []byte, span obs.ActiveSpan, ch chan<- Response, requests, errors *obs.Counter, d Dispatch) {
	requests.Inc()
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		errors.Inc()
		span.Attr("op", "?").Finish()
		ch <- ErrResp("bad request: %v", err)
		return
	}
	span.Attr("op", req.Op)
	if req.Rel != "" {
		span.Attr("rel", req.Rel)
	}
	d(req, span, ch)
}

// Session runs the pipelined request loop over one connection until
// EOF, answering every request line on w in request order. opts gives
// the pipeline window, the tracer and the registry the srv.conns,
// srv.requests and srv.errors counters live in; conn is the
// connection's positional id, the Conn half of every request's TraceID
// (the Seq half is the line number), so equal serial sessions produce
// equal trace ids (DESIGN.md §13).
func Session(r io.Reader, w io.Writer, opts Options, conn int64, d Dispatch) error {
	opts.Reg.Counter(obs.SrvConns).Inc()
	requests := opts.Reg.Counter(obs.SrvRequests)
	errors := opts.Reg.Counter(obs.SrvErrors)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	bw := bufio.NewWriter(w)

	window := make(chan struct{}, opts.pipeline())
	pending := make(chan chan Response, opts.pipeline())
	werr := make(chan error, 1)
	go func() {
		var failed error
		for ch := range pending {
			resp := <-ch
			if failed == nil { // once failed, keep draining so dispatched work is reaped
				b, err := resp.Encode() // memoized bytes are shared: write, never append
				if err == nil {
					_, err = bw.Write(b)
				}
				if err == nil {
					err = bw.WriteByte('\n')
				}
				if err == nil && len(pending) == 0 {
					err = bw.Flush()
				}
				failed = err
			}
			<-window
		}
		if failed == nil {
			failed = bw.Flush()
		}
		werr <- failed
	}()

	var reqSeq int64
	window <- struct{}{} // the next line's window slot; blocks while Pipeline requests are unanswered
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue // the slot waits for the next line
		}
		ch := make(chan Response, 1)
		pending <- ch // reserve the ordering slot
		reqSeq++
		span := opts.Tracer.Root(obs.TraceID{Conn: conn, Seq: reqSeq}).Start(obs.SpanReq, nil)
		dispatchLine(line, span, ch, requests, errors, d)
		window <- struct{}{}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Best-effort final error response; the write side may be gone.
		ch := make(chan Response, 1)
		ch <- ErrResp("read: %v", scanErr)
		pending <- ch // in the slot the failed scan took
	}
	close(pending)
	writeErr := <-werr

	if scanErr != nil {
		return fmt.Errorf("read: %w", scanErr)
	}
	return writeErr
}
