// Package ops is the unified operations surface of the Aegis runtime: one
// stdlib net/http server exposing liveness and readiness (/healthz,
// /readyz, fed by registered component probes), Prometheus metrics
// (/metrics, the telemetry registry's existing exposition), profiling
// (/debug/pprof/*), the flight recorder (/flight, versioned JSONL with
// window/kind/since filters) and a one-shot incident snapshot (/snapshot:
// metrics + recent spans + flight tail + overhead-budget status). The
// ROADMAP's aegisd daemon mounts this same server; aegisctl serves it
// with -ops.
package ops

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// Config configures the ops server. The zero value serves the process
// defaults (default registry and recorder, no budget probe) on Addr.
type Config struct {
	// Addr is the listen address (e.g. ":9144" or "127.0.0.1:0"); the
	// empty string disables the server.
	Addr string
	// Registry backs /metrics and /snapshot; nil means the process-wide
	// default.
	Registry *telemetry.Registry
	// Recorder backs /flight; nil means the process-wide default.
	Recorder *flight.Recorder
	// Budget, when set, adds the overhead-budget health probe and the
	// budget section of /snapshot.
	Budget *OverheadBudget
	// SnapshotFlightWindow bounds the flight tail embedded in /snapshot;
	// 0 means 64.
	SnapshotFlightWindow int
}

// Server is the ops HTTP server. Construct with NewServer, register
// probes, then Start (or mount Handler on an external server).
type Server struct {
	cfg Config

	mu     sync.Mutex
	health []Probe
	ready  []Probe
	mounts []mountEntry

	ln   net.Listener
	http *http.Server
}

// mountEntry is an extra handler subtree registered with Mount.
type mountEntry struct {
	pattern  string
	endpoint string
	handler  http.Handler
}

// NewServer builds a server. A configured Budget's probe is
// pre-registered.
func NewServer(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = flight.Default()
	}
	if cfg.SnapshotFlightWindow <= 0 {
		cfg.SnapshotFlightWindow = 64
	}
	s := &Server{cfg: cfg}
	if cfg.Budget != nil {
		s.RegisterHealth(cfg.Budget.Probe())
	}
	return s
}

// RegisterHealth adds a component probe to /healthz.
func (s *Server) RegisterHealth(p Probe) {
	s.mu.Lock()
	s.health = append(s.health, p)
	s.mu.Unlock()
}

// RegisterReadiness adds a probe to /readyz (e.g. a warm-up Gate).
func (s *Server) RegisterReadiness(p Probe) {
	s.mu.Lock()
	s.ready = append(s.ready, p)
	s.mu.Unlock()
}

// Mount registers an additional handler subtree on the ops mux (e.g. the
// aegisd control API under "/ctl/v1/"). Served requests are counted under
// the given endpoint label. Must be called before Handler or Start.
func (s *Server) Mount(pattern, endpoint string, h http.Handler) {
	s.mu.Lock()
	s.mounts = append(s.mounts, mountEntry{pattern: pattern, endpoint: endpoint, handler: h})
	s.mu.Unlock()
}

// mOpsRequests counts served requests per endpoint; the label set is
// bounded by the fixed route table below.
func countRequest(endpoint string) {
	telemetry.C("ops_http_requests_total", telemetry.L("endpoint", endpoint)).Inc()
}

// Handler builds the full ops mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			countRequest(endpoint)
			h(w, r)
		})
	}
	route("/healthz", "healthz", s.handleHealthz)
	route("/readyz", "readyz", s.handleReadyz)
	route("/flight", "flight", s.handleFlight)
	route("/snapshot", "snapshot", s.handleSnapshot)
	metrics := s.cfg.Registry.Handler()
	route("/metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		metrics.ServeHTTP(w, r)
	})
	route("/debug/pprof/", "pprof", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	mounts := append([]mountEntry(nil), s.mounts...)
	s.mu.Unlock()
	for _, m := range mounts {
		m := m
		mux.HandleFunc(m.pattern, func(w http.ResponseWriter, r *http.Request) {
			countRequest(m.endpoint)
			m.handler.ServeHTTP(w, r)
		})
	}
	return mux
}

// Start listens on Config.Addr and serves in a background goroutine,
// returning the bound address (useful with ":0" in tests). Returns an
// error when Addr is empty or the listen fails.
func (s *Server) Start() (string, error) {
	if s.cfg.Addr == "" {
		return "", fmt.Errorf("ops: no listen address configured")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("ops: listen %s: %w", s.cfg.Addr, err)
	}
	h := s.Handler() // before taking mu: Handler copies the mounts under it
	s.mu.Lock()
	s.ln = ln
	s.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	srv := s.http
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. Safe to call without Start.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// healthReport is the JSON body of /healthz and /readyz.
type healthReport struct {
	Status     string                 `json:"status"`
	Components map[string]ProbeResult `json:"components,omitempty"`
}

// evaluate runs a probe set: the aggregate is the worst component state.
func evaluate(probes []Probe) healthReport {
	rep := healthReport{Status: StateOK.String()}
	worst := StateOK
	if len(probes) > 0 {
		rep.Components = make(map[string]ProbeResult, len(probes))
	}
	for _, p := range probes {
		res := p.Check()
		rep.Components[p.Name] = res
		if res.State > worst {
			worst = res.State
		}
	}
	rep.Status = worst.String()
	return rep
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleHealthz reports liveness: 200 while no component has failed
// (degraded components stay 200 — alive but impaired), 503 otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	probes := append([]Probe(nil), s.health...)
	s.mu.Unlock()
	rep := evaluate(probes)
	status := http.StatusOK
	if rep.Status == StateFailed.String() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

// handleReadyz reports readiness: 503 until every readiness probe stops
// failing (a degraded component is still ready).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	probes := append([]Probe(nil), s.ready...)
	s.mu.Unlock()
	rep := evaluate(probes)
	status := http.StatusOK
	if rep.Status == StateFailed.String() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

// maxFlightWindow bounds ?window= so a typo cannot ask for a
// pathological dump size.
const maxFlightWindow = 1 << 20

// handleFlight dumps the recorder as aegis-flight/v1 JSONL. Query
// parameters: ?window=N (newest N records), ?kind=a,b (filter by record
// kind), ?since=SEQ (records newer than SEQ, for tailing).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var opts flight.DumpOptions
	if v := q.Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > maxFlightWindow {
			http.Error(w, fmt.Sprintf("ops: bad window %q (want 0..%d)", v, maxFlightWindow),
				http.StatusBadRequest)
			return
		}
		opts.Window = n
	}
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("ops: bad since %q", v), http.StatusBadRequest)
			return
		}
		opts.Since = n
	}
	if v := q.Get("kind"); v != "" {
		for _, name := range strings.Split(v, ",") {
			k, ok := flight.KindByName(strings.TrimSpace(name))
			if !ok {
				http.Error(w, fmt.Sprintf("ops: unknown kind %q", name), http.StatusBadRequest)
				return
			}
			opts.Kinds = append(opts.Kinds, k)
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.cfg.Recorder.WriteJSONL(w, opts)
}

// snapshotBody is the JSON shape of /snapshot.
type snapshotBody struct {
	Schema  string                 `json:"schema"`
	Health  healthReport           `json:"health"`
	Ready   healthReport           `json:"ready"`
	Budget  *BudgetStatus          `json:"budget,omitempty"`
	Metrics telemetry.Snapshot     `json:"metrics"`
	Spans   []telemetry.SpanRecord `json:"recent_spans,omitempty"`
	Flight  json.RawMessage        `json:"flight_tail"`
}

// SnapshotSchema versions the /snapshot body.
const SnapshotSchema = "aegis-snapshot/v1"

// handleSnapshot returns one JSON document with everything an incident
// report needs: health, budget, metrics, recent spans and the flight
// tail.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	health := append([]Probe(nil), s.health...)
	ready := append([]Probe(nil), s.ready...)
	s.mu.Unlock()
	body := snapshotBody{
		Schema:  SnapshotSchema,
		Health:  evaluate(health),
		Ready:   evaluate(ready),
		Metrics: s.cfg.Registry.Snapshot(),
		Spans:   s.cfg.Registry.Tracer().Recent(),
	}
	if s.cfg.Budget != nil {
		st := s.cfg.Budget.Status()
		body.Budget = &st
	}
	var tail strings.Builder
	if err := s.cfg.Recorder.WriteJSONL(&tail, flight.DumpOptions{
		Window: s.cfg.SnapshotFlightWindow, Label: "snapshot",
	}); err == nil {
		lines, _ := json.Marshal(strings.Split(strings.TrimSuffix(tail.String(), "\n"), "\n"))
		body.Flight = lines
	}
	writeJSON(w, http.StatusOK, body)
}
