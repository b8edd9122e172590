// Package serve embeds an HTTP monitoring server into a running
// simulation. It is opt-in (the runtime CLIs take a -serve flag), built
// entirely on the standard library, and reads only through the
// race-safe surfaces of the obs package — Registry snapshots,
// WritePrometheus, and caller-supplied health/status closures — so it
// can scrape a live Time Warp kernel without touching its hot path.
//
// Endpoints:
//
//	/          plain-text index of the endpoints below
//	/metrics   Prometheus text exposition (version 0.0.4) of the registry
//	/healthz   liveness: 200 while the run advances, 503 when wedged
//	/status    JSON snapshot: uptime, health, current samples, app state
//	/debug/pprof/...  the net/http/pprof profile suite
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Options configures the server. Every field is optional; the zero
// value serves an empty registry and reports healthy.
type Options struct {
	// Obs supplies the registry behind /metrics and /status. nil serves
	// empty exposition.
	Obs *obs.Observer
	// Health decides /healthz. nil means always healthy.
	Health func() (ok bool, detail string)
	// Status, when set, is marshalled under the "app" key of /status —
	// the hook for kernel probes and per-cluster stats.
	Status func() any
}

// promContentType is the Prometheus text exposition format version the
// /metrics endpoint speaks.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// Server is a live monitoring endpoint bound to one listener.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	done     chan struct{}
	opts     Options
	t0       time.Time
	closing  sync.Once
	closeErr error
}

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine until Close.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		done: make(chan struct{}),
		opts: opts,
		t0:   time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/status", s.handleStatus)
	// pprof registers on DefaultServeMux via init; wire it onto our
	// private mux explicitly instead of serving the global one.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound listen address, useful with port 0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and shuts the server down (gracefully for 2s,
// then hard). Idempotent; later calls return the first call's error.
func (s *Server) Close() error {
	s.closing.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if err != nil {
			err = s.srv.Close()
		}
		<-s.done
		s.closeErr = err
	})
	return s.closeErr
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `simulation monitor
  /metrics        Prometheus text exposition
  /healthz        liveness (503 when the run is wedged)
  /status         JSON snapshot of metrics and kernel state
  /debug/pprof/   Go profiles
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	if err := s.opts.Obs.WritePrometheus(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) health() (bool, string) {
	if s.opts.Health == nil {
		return true, "ok"
	}
	return s.opts.Health()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ok, detail := s.health()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, detail)
}

// statusBody is the /status response shape.
type statusBody struct {
	UptimeUS int64        `json:"uptime_us"`
	Healthy  bool         `json:"healthy"`
	Health   string       `json:"health"`
	Samples  []obs.Sample `json:"samples,omitempty"`
	App      any          `json:"app,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	ok, detail := s.health()
	b := statusBody{
		UptimeUS: time.Since(s.t0).Microseconds(),
		Healthy:  ok,
		Health:   detail,
		Samples:  s.opts.Obs.Registry().Snapshot().Samples,
	}
	if s.opts.Status != nil {
		b.App = s.opts.Status()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(b)
}
