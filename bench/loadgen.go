package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The load generator is sized for a 2-core box: two connections, one
// pacing goroutine. Latencies are exact per-request samples.

var okPrefix = []byte(`{"ok":true`)

const (
	loadConns  = 2
	loadWindow = 16
	// drainGrace bounds how long a phase waits for outstanding
	// responses after its last send; anything still unanswered then
	// counts as failed.
	drainGrace = 5 * time.Second
)

// pending is one request awaiting its response on a connection;
// responses arrive in request order, so a FIFO pairs them.
type pending struct {
	from time.Time
	idx  int
}

// client is one TCP connection with its response reader. answered runs
// on the reader goroutine for every ok response; everything it wrote
// may be read once finish has returned.
type client struct {
	conn     net.Conn
	q        chan pending
	done     chan struct{}
	answered func(p pending, at time.Time)
	ok       int
}

func dialClient(addr string, depth int, answered func(pending, time.Time)) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, q: make(chan pending, depth), done: make(chan struct{}), answered: answered}
	go c.readLoop()
	return c, nil
}

func (c *client) readLoop() {
	defer close(c.done)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 256*1024), 16*1024*1024)
	for sc.Scan() {
		now := time.Now()
		p, open := <-c.q
		if !open {
			return
		}
		// A prefix test, not a JSON decode: "ok" leads the wire format,
		// and decoding every response would measure the client.
		if bytes.HasPrefix(sc.Bytes(), okPrefix) {
			c.ok++
			c.answered(p, now)
		}
	}
}

// finish half-closes the connection and waits for the server to drain
// it. A request that was refused, hit a transport error or was never
// answered is not ok, and contributes no latency sample.
func (c *client) finish() {
	close(c.q) // buffered entries still pair with responses in flight
	if tc, ok := c.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	select {
	case <-c.done:
	case <-time.After(drainGrace):
	}
	c.conn.Close()
	<-c.done
}

// closedStats is one closed-loop repetition's outcome.
type closedStats struct {
	sent, ok int
	// rates are the ok responses per second over each block of rateBlock
	// consecutive responses of the send window.
	rates []float64
}

// A throughput reading spans rateBlock consecutive ok responses, blocks
// starting rateStride apart, after the rateSkip responses of the
// ramp-up. Counted in responses, not in time, so every workload's
// reading holds as many requests; ten windows' worth, so the responses a
// stalled client finds waiting (at most both windows) move a reading by
// a tenth at worst; and short, so a run holds hundreds of readings and a
// machine stall spoils a few of them, not the run's median.
const (
	rateBlock  = 10 * loadConns * loadWindow
	rateStride = rateBlock / 4
	rateSkip   = 2 * loadConns * loadWindow
)

// closedLoop drives one pipelined connection per stream, each keeping
// up to loadWindow requests in flight, for the send window d.
func closedLoop(addr string, streams []*stream, d time.Duration) (closedStats, error) {
	deadline := time.Now().Add(d)
	clients := make([]*client, len(streams))
	sent := make([]int, len(streams))
	errs := make([]error, len(streams))
	// at[i] are the arrival times of connection i's ok responses; each
	// connection's reader goroutine appends to its own row.
	at := make([][]time.Time, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i], sent[i], errs[i] = closedConn(addr, streams[i], deadline, func(_ pending, t time.Time) { at[i] = append(at[i], t) })
		}(i)
	}
	wg.Wait()
	var total closedStats
	var all []time.Time
	for i, c := range clients {
		if errs[i] != nil {
			return total, errs[i]
		}
		total.sent += sent[i]
		total.ok += c.ok
		all = append(all, at[i]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Before(all[j]) })
	for lo := rateSkip; lo+rateBlock < len(all); lo += rateStride {
		total.rates = append(total.rates, rateBlock/all[lo+rateBlock].Sub(all[lo]).Seconds())
	}
	if len(total.rates) == 0 { // a window too short for one block: one reading over all of it
		total.rates = []float64{float64(total.ok) / d.Seconds()}
	}
	return total, nil
}

func closedConn(addr string, s *stream, deadline time.Time, answered func(pending, time.Time)) (*client, int, error) {
	c, err := dialClient(addr, loadWindow, answered)
	if err != nil {
		return nil, 0, err
	}
	bw := bufio.NewWriter(c.conn)
	sent, unflushed := 0, 0
	var sendErr error
send:
	for time.Now().Before(deadline) {
		req := s.next()
		select {
		case c.q <- pending{}:
		default:
			// Window full: what is buffered must reach the server
			// before blocking, or the awaited responses never come.
			if sendErr = bw.Flush(); sendErr != nil {
				break send
			}
			select {
			case c.q <- pending{}:
			case <-c.done:
				sendErr = errors.New("connection closed mid-run")
				break send
			}
		}
		bw.Write(req.line)
		bw.WriteByte('\n')
		sent++
		if unflushed++; unflushed >= loadWindow/2 {
			if sendErr = bw.Flush(); sendErr != nil {
				break send
			}
			unflushed = 0
		}
	}
	if sendErr == nil {
		sendErr = bw.Flush()
	}
	c.finish()
	return c, sent, sendErr
}

// openStats is one open-loop phase, indexed by request in due order:
// lat[i] is request i's latency from its due time in ns, -1 when it
// failed or was never answered; late[i] is how far behind its due time
// the pacer sent it.
type openStats struct {
	lat, late []int64
	write     []bool
	ok        int
}

func (o *openStats) sent() int { return len(o.late) }

// pick returns the sorted latencies of the answered requests that keep
// accepts.
func (o *openStats) pick(keep func(write bool) bool) samples {
	var out samples
	for i := range o.late {
		if o.lat[i] >= 0 && keep(o.write[i]) {
			out = append(out, o.lat[i])
		}
	}
	return out.sorted()
}

// openLoop sends one request every 1/rate seconds for d, whatever the
// server does, alternating over one connection per stream from a
// single pacing goroutine. Each latency runs from the request's due
// time, so a stall is charged to every request it delays.
func openLoop(addr string, streams []*stream, rate float64, d time.Duration) (*openStats, error) {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	o := &openStats{lat: make([]int64, n), late: make([]int64, 0, n), write: make([]bool, n)}
	for i := range o.lat {
		o.lat[i] = -1
	}
	clients := make([]*client, len(streams))
	for k := range clients {
		c, err := dialClient(addr, n, func(p pending, at time.Time) { o.lat[p.idx] = at.Sub(p.from).Nanoseconds() })
		if err != nil {
			for _, open := range clients[:k] {
				open.finish()
			}
			return nil, err
		}
		clients[k] = c
	}
	line := make([]byte, 0, 256)
	var sendErr error
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := 0; i < n && sendErr == nil; i++ {
		k := i % len(clients)
		req := streams[k].next()
		due := start.Add(time.Duration(i) * interval)
		now := waitUntil(due, time.Now())
		o.late = append(o.late, now.Sub(due).Nanoseconds())
		o.write[i] = req.write
		clients[k].q <- pending{from: due, idx: i}
		line = append(append(line[:0], req.line...), '\n')
		_, sendErr = clients[k].conn.Write(line)
	}
	for _, c := range clients {
		c.finish()
		o.ok += c.ok
	}
	return o, sendErr
}

// pingPong replays requests one at a time over one connection
// (window 1), timing each round trip: the serial view of the TCP
// session layer the traced run uses.
type pingPong struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dialPingPong(addr string) (*pingPong, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &pingPong{conn: conn, rd: bufio.NewReaderSize(conn, 256*1024)}, nil
}

// do sends one request line and returns the response line.
func (p *pingPong) do(line []byte) ([]byte, error) {
	if _, err := p.conn.Write(append(append([]byte(nil), line...), '\n')); err != nil {
		return nil, err
	}
	resp, err := p.rd.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(resp, "\n"), nil
}

func (p *pingPong) close() { p.conn.Close() }

// replay sends the requests next yields one at a time, until it says
// stop, timing each round trip, and hands every ok response to each
// with the request's index. Every request counts as attempted in res,
// and one answered anything but ok as failed.
func (p *pingPong) replay(res *result, next func() (rq request, more bool), each func(i int, rq request, start time.Time, d time.Duration, resp []byte)) error {
	for i := 0; ; i++ {
		rq, more := next()
		if !more {
			return nil
		}
		start := time.Now()
		resp, err := p.do(rq.line)
		d := time.Since(start)
		res.attempted++
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(resp, okPrefix) {
			res.failed++
			continue
		}
		each(i, rq, start, d, resp)
	}
}

// spinWindow is how long before a due time the pacer stops sleeping
// and spins: above the kernel's timer slack, far below a send interval.
const spinWindow = 120 * time.Microsecond

// waitUntil blocks until due and returns the time it stopped waiting.
// It sleeps (sleepFor: in the kernel where the platform allows) and
// spins the last spinWindow, so the pacer holds a core only briefly
// before each send and the server keeps both.
func waitUntil(due, now time.Time) time.Time {
	for now.Before(due) {
		if d := due.Sub(now) - spinWindow; d > 0 {
			sleepFor(d)
		}
		now = time.Now()
	}
	return now
}
