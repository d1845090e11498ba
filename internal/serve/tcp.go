package serve

import (
	"fmt"
	"io"
	"net"
	"sync"
)

// Handler is one protocol endpoint: anything that can run a session
// over a byte stream. Core implements it (single-node serving); the
// cluster router implements it too, so the same TCP front end serves
// both deployments.
type Handler interface {
	Serve(r io.Reader, w io.Writer) error
}

// TCPServer accepts connections and runs one pipelined session per
// connection over a shared Handler. Connections are independent: each
// gets its own ordering buffer and backpressure window; all share the
// handler's write queue and read epochs.
type TCPServer struct {
	h  Handler
	ln net.Listener
	// errLog receives per-connection serve errors (nil = discard).
	errLog io.Writer

	mu     sync.Mutex
	closed bool
	active map[net.Conn]bool
	wg     sync.WaitGroup
}

// NewTCPServerFor listens on addr (e.g. "127.0.0.1:0") and returns a
// server ready to Serve sessions of h — a Core or the cluster router.
// errLog, when non-nil, receives one line per connection that ended
// with an error.
func NewTCPServerFor(h Handler, addr string, errLog io.Writer) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPServer{h: h, ln: ln, errLog: errLog, active: make(map[net.Conn]bool)}, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until Close. It returns nil after Close,
// or the first accept error otherwise.
func (s *TCPServer) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			if err := s.h.Serve(conn, conn); err != nil && !s.isClosed() && s.errLog != nil {
				fmt.Fprintf(s.errLog, "serve: connection: %v\n", err)
			}
		}()
	}
}

// Start runs Serve on its own goroutine.
func (s *TCPServer) Start() { go s.Serve() }

// Close stops accepting, force-closes every active connection, and
// waits for all sessions to drain. The Core is left open — close it
// after.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.active))
	for c := range s.active {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *TCPServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.active[conn] = true
	return true
}

func (s *TCPServer) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.active, conn)
}
