package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StatusFunc produces the live /status document; it must be concurrency-safe.
// The returned value is marshalled as JSON on every request.
type StatusFunc func() any

// Server exposes a Registry (and an optional status snapshot) over HTTP:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON snapshot of the same registry
//	/status         live status JSON (per-worker and per-experiment progress)
//	/dashboard      live HTML dashboard over /metrics.json + /status
//	/debug/pprof/   the standard Go profiler endpoints
//
// It binds its own listener (so ":0" works and Addr reports the real port)
// and serves on a private mux — it never touches http.DefaultServeMux.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	done   chan struct{}
	reg    *Registry
	status StatusFunc
}

// NewServer listens on addr and starts serving immediately. status may be nil
// (the /status endpoint then serves an empty object).
func NewServer(addr string, reg *Registry, status StatusFunc) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, reg: reg, status: status, done: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/dashboard", s.handleDashboard)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.handleIndex)

	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// Addr returns the bound listen address (resolving a requested ":0" port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close gracefully shuts the server down: in-flight scrapes complete (within
// a short drain window), then the listener closes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PrometheusContentType)
	s.reg.WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var doc any = struct{}{}
	if s.status != nil {
		doc = s.status()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><head><title>nacho telemetry</title></head><body>
<h1>nacho telemetry</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/metrics.json">/metrics.json</a> — JSON metrics snapshot</li>
<li><a href="/status">/status</a> — live harness status</li>
<li><a href="/dashboard">/dashboard</a> — live campaign dashboard</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiler</li>
</ul></body></html>
`)
}
