// Package admin is the operational HTTP endpoint shared by every
// binary in the repo: calmd (single-node and cluster), dlog, calmsim,
// and experiments all expose the same four routes from the standard
// library alone — no client dependencies, curl is the whole toolkit.
//
//	/metrics        Prometheus text format 0.0.4 from an obs.Registry
//	/healthz        JSON health body; 200 when healthy, 503 when not
//	/trace?n=K      the ring's last K records, events and spans, as JSONL (obs.Tracer)
//	/debug/pprof/*  the standard runtime profiles
//
// The server is deliberately passive: it holds no state of its own
// and never touches the serving hot path. Anything that is expensive
// to keep fresh per-request (per-shard pump lag, epoch age) is
// refreshed by the owner's BeforeScrape hook at scrape time instead —
// a scrape costs the scraper, not the request path.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Options configures which planes the endpoint exposes. Every field
// is optional: a nil Reg serves an empty /metrics, a nil Tracer an
// empty /trace, a nil Health an always-200 /healthz.
type Options struct {
	// Reg is the metrics registry rendered by /metrics.
	Reg *obs.Registry
	// Tracer's ring of records backs /trace: the events and finished
	// spans it holds, oldest first.
	Tracer *obs.Tracer
	// BeforeScrape, when non-nil, runs before each /metrics and
	// /healthz render — the place to refresh scrape-time gauges
	// (pump-lag watermarks, epoch age) without touching the hot path.
	BeforeScrape func()
	// Health, when non-nil, produces the /healthz body and verdict;
	// !ok renders the same body with status 503.
	Health func() (ok bool, body any)
}

// Server is a running admin endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan error
}

// Start listens on addr (e.g. ":6060" or "127.0.0.1:0") and serves
// the admin routes until Close. It returns once the listener is
// bound, so Addr() is immediately usable — tests bind port 0 and
// scrape themselves.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if opts.BeforeScrape != nil {
			opts.BeforeScrape()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteProm(w, opts.Reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if opts.BeforeScrape != nil {
			opts.BeforeScrape()
		}
		ok, body := true, any(map[string]bool{"ok": true})
		if opts.Health != nil {
			ok, body = opts.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		enc.Encode(body)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		opts.Tracer.WriteJSONL(w, n)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// StartBackground serves the admin routes for the life of a batch
// command (dlog, calmsim, experiments: their -admin flag, named as
// calmd's; "" = disabled) — the same routes calmd -admin exposes, so one curl
// recipe profiles every binary in the repo. The endpoint is a
// convenience, never a reason to fail the run: a listen error is
// reported on stderr under the command's name and the run goes on.
func StartBackground(prog, addr string, reg *obs.Registry) {
	if addr == "" {
		return
	}
	adm, err := Start(addr, Options{Reg: reg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: admin: %v\n", prog, err)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: admin on http://%s\n", prog, adm.Addr())
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down and waits for the serve loop to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
