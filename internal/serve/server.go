package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/asv-db/asv/internal/obs"
)

// ServerConfig configures a Server; the zero value serves with the
// documented defaults.
type ServerConfig struct {
	// Limits are the request-scoped guard rails (zero fields default).
	Limits Limits
	// Registry receives the server's request counters and latency
	// histograms; nil creates a private one.
	Registry *obs.Registry
}

// readHeaderTimeout bounds how long a connection may take to send a
// request's line and headers, so a client that opens a connection and
// stalls mid-request cannot hold it open forever. Idle keep-alive
// connections between requests are bounded by idleTimeout instead.
const readHeaderTimeout = 10 * time.Second

// readTimeout bounds how long a connection may take to send a whole
// request, body included, so a client that announces a body and then
// stalls cannot hold a handler goroutine and its connection forever. It
// is far above the time any well-behaved client needs to send a request
// body of at most Limits.MaxBodyBytes.
const readTimeout = 30 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit idle
// between requests before the server closes it, so abandoned client
// connections do not accumulate. It is far above any idle gap of a
// client that is still sending: a POST is not retried when the server
// closes its idle connection under it.
const idleTimeout = 120 * time.Second

// Server is the asvd HTTP front end: a stdlib-only JSON API over a
// tenant catalog of sharded adaptive columns. Create one with
// NewServer, run it with Serve, stop it with Shutdown — which drains
// in-flight requests first and closes the tenant catalog after, so no
// request ever observes a half-closed engine.
type Server struct {
	cat *Catalog
	lim Limits
	reg *obs.Registry
	mux *http.ServeMux
	srv *http.Server
}

// NewServer builds a server over a fresh tenant catalog.
func NewServer(cfg ServerConfig) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cat: NewCatalog(),
		lim: cfg.Limits.withDefaults(),
		reg: reg,
		mux: http.NewServeMux(),
	}
	s.routes()
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s
}

// Catalog exposes the tenant catalog (the smoke demo and tests reach
// through it; HTTP clients use the API).
func (s *Server) Catalog() *Catalog { return s.cat }

// Registry exposes the server's instrument registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the HTTP handler (for tests driving the mux without a
// listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like http.Server.Serve.
func (s *Server) Serve(l net.Listener) error { return s.srv.Serve(l) }

// Shutdown stops the server gracefully: stop accepting, drain every
// in-flight request (bounded by ctx), then close the tenant catalog —
// in that order, so requests never race tenant teardown. The catalog is
// closed even when the drain deadline expires; the first error wins.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if cerr := s.cat.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// tenantHandler is one endpoint's logic, invoked with the resolved
// tenant.
type tenantHandler func(w http.ResponseWriter, r *http.Request, t *Tenant)

// routes registers every endpoint; tenant-scoped ones live under
// /t/{tenant}/....
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tenants": len(s.cat.Names())})
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.reg.Snapshot())
	})
	s.mux.HandleFunc("DELETE /t/{tenant}", s.instrumented("tenant_close", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		if err := s.cat.CloseTenant(name); err != nil {
			s.writeError(w, http.StatusNotFound, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"closed": name})
	}))

	s.route("GET", "/columns", "columns_list", s.handleColumnsList)
	s.route("POST", "/columns", "column_create", s.handleColumnCreate)
	s.route("DELETE", "/columns/{name}", "column_close", s.handleColumnClose)
	s.route("POST", "/columns/{name}/query", "query", s.handleQuery)
	s.route("POST", "/columns/{name}/update", "update", s.handleUpdate)
	s.route("POST", "/columns/{name}/sync", "sync", s.handleSync)
	s.route("POST", "/columns/{name}/views", "view_create", s.handleViewCreate)
	s.route("POST", "/columns/{name}/snapshots", "snapshot_create", s.handleSnapshotCreate)
	s.route("POST", "/columns/{name}/snapshots/{id}/query", "snapshot_query", s.handleSnapshotQuery)
	s.route("DELETE", "/columns/{name}/snapshots/{id}", "snapshot_close", s.handleSnapshotClose)
	s.route("GET", "/columns/{name}/telemetry", "telemetry", s.handleTelemetry)
}

// route registers one tenant-scoped endpoint under /t/{tenant}.
func (s *Server) route(method, path, endpoint string, h tenantHandler) {
	s.mux.HandleFunc(method+" /t/{tenant}"+path, s.withTenant(endpoint, h))
}

// statusWriter remembers the status code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrumented wraps a handler with the per-endpoint request counter,
// latency histogram and status counters. The registry lookup happens
// per request on purpose: tenants appear dynamically, so the handles
// cannot all be resolved at construction like the engine's instruments
// — one short mutexed map lookup per HTTP request is noise next to the
// network round-trip.
func (s *Server) instrumented(key string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.reg.Counter("serve_req_" + key).Inc()
		s.reg.Counter(fmt.Sprintf("serve_status_%dxx", status/100)).Inc()
		s.reg.Histogram("serve_latency_ns_" + key).Observe(uint64(time.Since(start).Nanoseconds()))
	}
}

// withTenant resolves the tenant from the path, instruments the request
// per tenant+endpoint, and enforces the body limit.
func (s *Server) withTenant(endpoint string, h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t, err := s.cat.Tenant(name)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.lim.MaxBodyBytes)
		}
		s.instrumented(endpoint+"_"+name, func(w http.ResponseWriter, r *http.Request) {
			h(w, r, t)
		})(w, r)
	}
}

// decode reads one JSON request body into v, mapping oversized bodies
// to 413 and malformed JSON to 400. The boolean reports success; on
// failure the response has been written.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

// writeJSON writes one JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) //asv:ignore-err the status line is already on the wire; an encode error here is the client hanging up
}

// writeError writes the uniform error shape.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// pathUint parses a numeric path value.
func pathUint(r *http.Request, key string) (uint64, error) {
	v, err := strconv.ParseUint(r.PathValue(key), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad %s %q", key, r.PathValue(key))
	}
	return v, nil
}
