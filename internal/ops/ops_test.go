package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// newTestServer builds a server on fresh registry/recorder state with a
// couple of records journaled.
func newTestServer(t *testing.T, budget *OverheadBudget) *Server {
	t.Helper()
	rec := flight.NewRecorder(128)
	rec.Handle(flight.KindObfuscatorTick).Record(1, flight.CodeTickInjected, flight.CodeMechLaplace, 2, 1, 0)
	rec.Handle(flight.KindObfuscatorTick).Incident(2, flight.CodeDegradedPMURead, flight.CodeMechLaplace, 0, 0, 3)
	rec.Handle(flight.KindFault).Incident(2, flight.CodeFaultPMURead, flight.CodeNone, 0, 0, 0)
	reg := telemetry.NewRegistry()
	reg.Counter("obfuscator_ticks_total").Add(2)
	return NewServer(Config{Registry: reg, Recorder: rec, Budget: budget})
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// TestHandlerTable pins status codes and content types per endpoint.
func TestHandlerTable(t *testing.T) {
	srv := newTestServer(t, NewOverheadBudget(0))
	h := srv.Handler()
	tests := []struct {
		path        string
		wantStatus  int
		wantType    string
		wantContain string
	}{
		{"/healthz", 200, "application/json", `"overhead-budget"`},
		{"/readyz", 200, "application/json", `"status"`},
		{"/metrics", 200, "text/plain; version=0.0.4; charset=utf-8", "obfuscator_ticks_total"},
		{"/flight", 200, "application/x-ndjson", flight.SchemaV1},
		{"/snapshot", 200, "application/json", SnapshotSchema},
		{"/flight?window=1", 200, "application/x-ndjson", `"seq":3`},
		{"/flight?kind=fault", 200, "application/x-ndjson", "fault:pmu-read"},
		{"/flight?since=2", 200, "application/x-ndjson", `"seq_first":3`},
		{"/flight?window=-1", 400, "", "bad window"},
		{"/flight?window=9999999999", 400, "", "bad window"},
		{"/flight?window=notanumber", 400, "", "bad window"},
		{"/flight?since=notanumber", 400, "", "bad since"},
		{"/flight?kind=bogus", 400, "", "unknown kind"},
		{"/debug/pprof/cmdline", 200, "", ""},
	}
	for _, tc := range tests {
		w := get(t, h, tc.path)
		if w.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (body %q)", tc.path, w.Code, tc.wantStatus, w.Body.String())
			continue
		}
		if tc.wantType != "" && w.Header().Get("Content-Type") != tc.wantType {
			t.Errorf("%s: content type %q, want %q", tc.path, w.Header().Get("Content-Type"), tc.wantType)
		}
		if tc.wantContain != "" && !strings.Contains(w.Body.String(), tc.wantContain) {
			t.Errorf("%s: body does not contain %q:\n%s", tc.path, tc.wantContain, w.Body.String())
		}
	}
}

// TestHealthStateTransitions walks a probe through ok → degraded →
// failed → ok and checks the aggregate status and HTTP code.
func TestHealthStateTransitions(t *testing.T) {
	srv := newTestServer(t, nil)
	var mu sync.Mutex
	state := StateOK
	srv.RegisterHealth(Probe{Name: "hpc", Check: func() ProbeResult {
		mu.Lock()
		defer mu.Unlock()
		return ProbeResult{State: state, Detail: "test"}
	}})
	srv.RegisterHealth(Probe{Name: "sev", Check: func() ProbeResult { return OK("ticks=2") }})
	h := srv.Handler()

	check := func(want State, wantCode int) {
		t.Helper()
		w := get(t, h, "/healthz")
		if w.Code != wantCode {
			t.Fatalf("state %v: status %d, want %d", want, w.Code, wantCode)
		}
		var rep struct {
			Status     string                 `json:"status"`
			Components map[string]ProbeResult `json:"components"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Status != want.String() {
			t.Fatalf("aggregate %q, want %q", rep.Status, want)
		}
		if rep.Components["hpc"].State != want {
			t.Fatalf("component hpc = %v, want %v", rep.Components["hpc"].State, want)
		}
	}
	check(StateOK, 200)
	mu.Lock()
	state = StateDegraded
	mu.Unlock()
	check(StateDegraded, 200) // degraded is alive-but-impaired
	mu.Lock()
	state = StateFailed
	mu.Unlock()
	check(StateFailed, 503)
	mu.Lock()
	state = StateOK
	mu.Unlock()
	check(StateOK, 200)
}

func TestReadyzGate(t *testing.T) {
	srv := newTestServer(t, nil)
	gate := NewGate("plan-warmup")
	srv.RegisterReadiness(gate.Probe())
	h := srv.Handler()
	if w := get(t, h, "/readyz"); w.Code != 503 {
		t.Fatalf("closed gate: /readyz = %d, want 503", w.Code)
	}
	gate.Open()
	if !gate.open.Load() {
		t.Fatal("gate did not open")
	}
	if w := get(t, h, "/readyz"); w.Code != 200 {
		t.Fatalf("open gate: /readyz = %d, want 200", w.Code)
	}
	gate.Close()
	if w := get(t, h, "/readyz"); w.Code != 503 {
		t.Fatalf("re-closed gate: /readyz = %d, want 503", w.Code)
	}
}

func TestOverheadBudget(t *testing.T) {
	b := NewOverheadBudget(0)
	if st := b.Status(); st.Breached || st.Fraction != 0 || st.Target != DefaultOverheadTarget {
		t.Fatalf("empty budget status = %+v", st)
	}
	b.Add(1, 100) // 1%
	if st := b.Status(); st.Breached || st.Fraction != 0.01 {
		t.Fatalf("1%% status = %+v", st)
	}
	b.Add(4, 100) // cumulative 5/200 = 2.5%
	st := b.Status()
	if !st.Breached || st.Fraction != 0.025 {
		t.Fatalf("2.5%% status = %+v", st)
	}
	if !strings.Contains(st.Verdict(), "BREACHED") {
		t.Fatalf("verdict %q does not flag the breach", st.Verdict())
	}
	res := b.Probe().Check()
	if res.State != StateDegraded {
		t.Fatalf("breached probe state = %v, want degraded", res.State)
	}
}

func TestBudgetTelemetrySource(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.MetricObfuscatorInjectedInstructionsTotal).Add(15)
	reg.Counter(telemetry.MetricSevVcpuStepsTotal).Add(100)
	reg.Gauge(telemetry.MetricSevTickBudget).Set(20)
	st := NewTelemetryBudget(reg).Status()
	if st.Injected != 15 || st.Capacity != 2000 || st.Target != DefaultOverheadTarget {
		t.Fatalf("source status = %+v, want injected 15 capacity 2000 at the default target", st)
	}
	if st.Breached { // 0.75% < 2%
		t.Fatalf("0.75%% must not breach: %+v", st)
	}
}

// TestSnapshotBody checks /snapshot carries every section.
func TestSnapshotBody(t *testing.T) {
	b := NewOverheadBudget(0)
	b.Add(3, 100) // 3% — breached
	srv := newTestServer(t, b)
	w := get(t, srv.Handler(), "/snapshot")
	var body struct {
		Schema string `json:"schema"`
		Health struct {
			Status string `json:"status"`
		} `json:"health"`
		Budget  *BudgetStatus `json:"budget"`
		Metrics struct {
			Counters []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
		Flight []string `json:"flight_tail"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if body.Schema != SnapshotSchema {
		t.Fatalf("schema %q", body.Schema)
	}
	if body.Budget == nil || !body.Budget.Breached {
		t.Fatalf("budget section missing or not breached: %+v", body.Budget)
	}
	if body.Health.Status != "degraded" {
		t.Fatalf("health %q, want degraded (breached budget probe)", body.Health.Status)
	}
	if len(body.Flight) != 4 { // header + 3 records
		t.Fatalf("flight tail has %d lines, want 4: %v", len(body.Flight), body.Flight)
	}
	if !strings.Contains(body.Flight[0], flight.SchemaV1) {
		t.Fatalf("flight tail header %q", body.Flight[0])
	}
	found := false
	for _, c := range body.Metrics.Counters {
		if c.Name == "obfuscator_ticks_total" && c.Value == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("metrics section missing obfuscator_ticks_total")
	}
}

// TestStartServesOverTCP is the end-to-end loopback test: Start on :0,
// hit the endpoints over real HTTP, Close.
func TestStartServesOverTCP(t *testing.T) {
	srv := newTestServer(t, NewOverheadBudget(0))
	srv.cfg.Addr = "127.0.0.1:0"
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", srv.Addr(), addr)
	}
	for _, path := range []string{"/healthz", "/metrics", "/flight", "/snapshot"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, b)
		}
		if len(b) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}
	if _, err := srv.Start(); err == nil {
		srv.Close()
	}
}

func TestStartWithoutAddrFails(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Start(); err == nil {
		t.Fatal("Start without Addr must fail")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close before Start: %v", err)
	}
}

// TestConcurrentProbeAndServe hammers handlers while registering probes
// and journaling records; meaningful under -race.
func TestConcurrentProbeAndServe(t *testing.T) {
	srv := newTestServer(t, NewOverheadBudget(0))
	h := srv.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				get(t, h, "/healthz")
				get(t, h, "/flight?window=8")
				get(t, h, "/snapshot")
			}
		}()
		go func() {
			defer wg.Done()
			hd := srv.cfg.Recorder.Handle(flight.KindFault)
			for j := 0; j < 100; j++ {
				hd.Incident(int64(j), flight.CodeFaultGadgetInterrupt, flight.CodeNone, 0, 0, 0)
			}
			srv.RegisterHealth(Probe{Name: "x", Check: func() ProbeResult { return OK("") }})
		}()
	}
	wg.Wait()
}
