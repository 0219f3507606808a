package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// healthEntry is one named liveness/durability probe.
type healthEntry struct {
	name  string
	check func() (detail string, err error)
}

// RegisterHealth adds a named health check to the registry. check returns a
// human-readable detail string and a non-nil error when unhealthy; /healthz
// runs every check on each request and returns 503 if any fails. Entities
// self-register their PersistenceErr probes here when given a registry.
// No-op on a nil registry.
func (r *Registry) RegisterHealth(name string, check func() (detail string, err error)) {
	if r == nil || check == nil {
		return
	}
	r.healthMu.Lock()
	r.health = append(r.health, healthEntry{name: name, check: check})
	r.healthMu.Unlock()
}

// healthResult is one check's outcome in the /healthz JSON body.
type healthResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
}

// runHealth executes every registered check.
func (r *Registry) runHealth() (results []healthResult, healthy bool) {
	r.healthMu.Lock()
	checks := append([]healthEntry(nil), r.health...)
	r.healthMu.Unlock()
	healthy = true
	results = make([]healthResult, 0, len(checks))
	for _, c := range checks {
		detail, err := c.check()
		res := healthResult{Name: c.name, OK: err == nil, Detail: detail}
		if err != nil {
			res.Err = err.Error()
			healthy = false
		}
		results = append(results, res)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results, healthy
}

// Handler returns the admin HTTP mux: /metrics (Prometheus text),
// /healthz (JSON; 503 when any check fails), /traces (JSON span records,
// oldest first), and /debug/pprof.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		results, healthy := r.runHealth()
		w.Header().Set("Content-Type", "application/json")
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(struct {
			Healthy bool           `json:"healthy"`
			Checks  []healthResult `json:"checks"`
		}{healthy, results})
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		spans := r.Tracer().Spans()
		if spans == nil {
			spans = []SpanRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running admin endpoint; Close shuts it down.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and severs open connections.
func (s *Server) Close() error { return s.srv.Close() }

// Serve binds the admin HTTP server on addr (e.g. ":9090" or
// "127.0.0.1:0") and serves the registry's Handler in a background
// goroutine until Close. Returns the running server so callers can log the
// bound address and shut it down.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           r.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}
