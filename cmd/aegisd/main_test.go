package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

// TestDaemonSmoke boots a real aegisd — fuzzed plan, ticker-driven loop,
// ops server on a loopback port — and drives it over HTTP: readiness,
// tenant attach, work submission and the control-API status, then waits
// for the -ticks bound to stop it cleanly.
func TestDaemonSmoke(t *testing.T) {
	addrCh := make(chan string, 1)
	opsAddrNotify = func(addr string) { addrCh <- addr }
	defer func() { opsAddrNotify = nil }()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-events", "RETIRED_UOPS",
			"-candidates", "60",
			"-tenants", "2",
			"-ticks", "400",
			"-tick-interval", "2ms",
			"-queue-cap", "4",
			"-seed", "3",
		})
	}()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not come up in 60s")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	if code, body := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d: %s", code, body)
	}
	if code, body := get("/ctl/v1/tenants"); code != 200 || !strings.Contains(body, `"t000"`) {
		t.Fatalf("pre-attached tenants missing: %d %s", code, body)
	}
	if code, body := post("/ctl/v1/attach", `{"name":"smoke","app":"keystroke","secrets":3}`); code != 200 {
		t.Fatalf("attach = %d: %s", code, body)
	}
	if code, body := post("/ctl/v1/submit", `{"name":"smoke","jobs":2}`); code != 200 {
		t.Fatalf("submit = %d: %s", code, body)
	}
	if code, body := post("/ctl/v1/reload", `{"epsilon": 2.0}`); code != 200 {
		t.Fatalf("reload = %d: %s", code, body)
	}
	if code, body := post("/ctl/v1/reload", `{"epsilon": -2.0}`); code != 400 {
		t.Fatalf("invalid reload = %d, want 400: %s", code, body)
	}
	code, body := get("/ctl/v1/daemon")
	if code != 200 {
		t.Fatalf("/ctl/v1/daemon = %d: %s", code, body)
	}
	var resp struct {
		Schema string `json:"schema"`
		Daemon struct {
			Tenants       int `json:"tenants"`
			ReloadRejects int `json:"reload_rejects_total"`
		} `json:"daemon"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("daemon status not JSON: %v\n%s", err, body)
	}
	if resp.Schema != "aegisd-ctl/v1" || resp.Daemon.Tenants != 3 || resp.Daemon.ReloadRejects != 1 {
		t.Fatalf("daemon status: %s", body)
	}
	if code, body := get("/flight?kind=daemon"); code != 200 || !strings.Contains(body, "tenant:attach") {
		t.Fatalf("/flight = %d: %s", code, body)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon run: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not stop at the -ticks bound")
	}
}

// TestArtifactDirWarmStart starts aegisd twice on one -artifact-dir: the
// cold start profiles and fuzzes from scratch and fills the store, the
// warm start resumes from it and deploys the same plan.
func TestArtifactDirWarmStart(t *testing.T) {
	var plans []*aegis.GadgetSet
	planNotify = func(g *aegis.GadgetSet) { plans = append(plans, g) }
	defer func() { planNotify = nil }()
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-app", "keystroke",
		"-secrets", "2",
		"-top", "1",
		"-candidates", "60",
		"-ticks", "1",
		"-tick-interval", "1ms",
		"-artifact-dir", dir,
	}
	var hits [2]float64
	for i := range hits {
		before := storeHits()
		if err := run(args); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		hits[i] = storeHits() - before
	}
	if hits[0] != 0 || hits[1] == 0 {
		t.Fatalf("store hits: cold start %v, warm start %v; want 0 and some", hits[0], hits[1])
	}
	cold, warm := plans[0], plans[1]
	if cold.CoverSize != warm.CoverSize || !reflect.DeepEqual(cold.Events, warm.Events) ||
		!reflect.DeepEqual(cold.Segment(), warm.Segment()) || cold.RefEvent().Name != warm.RefEvent().Name {
		t.Fatalf("warm plan %v: %d gadgets, %d instructions; cold plan %v: %d gadgets, %d instructions",
			warm.Events, warm.CoverSize, warm.SegmentLen, cold.Events, cold.CoverSize, cold.SegmentLen)
	}
}

// storeHits sums the artifact store's cache hits over every kind.
func storeHits() float64 {
	var n float64
	for _, c := range telemetry.Default().Snapshot().Counters {
		if c.Name == "artifact_cache_hits_total" {
			n += c.Value
		}
	}
	return n
}

// TestReloadFromFile covers the SIGHUP config path without signals: a
// good file stages, a bad one is rejected whole.
func TestReloadFromFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, []byte(`{"mechanism":"dstar","epsilon":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"mechanismm":"dstar"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemontest.BaseConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := reloadFromFile(d, good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if !d.Status().PendingReload {
		t.Fatal("good config not staged")
	}
	if err := reloadFromFile(d, bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := reloadFromFile(d, ""); err == nil {
		t.Fatal("empty path accepted")
	}
}

// TestProfiledAppMatchesTenant checks that event selection profiles the
// same application a tenant runs: with -secrets 0 both get the daemon's
// default alphabet, not the full 45 sites / 10 keys.
func TestProfiledAppMatchesTenant(t *testing.T) {
	var profiled workload.App
	profileNotify = func(app workload.App) { profiled = app }
	defer func() { profileNotify = nil }()
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-app", "keystroke",
		"-secrets", "0",
		"-top", "1",
		"-candidates", "30",
		"-ticks", "1",
		"-tick-interval", "1ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := daemon.BuildApp("keystroke", 0)
	if err != nil {
		t.Fatal(err)
	}
	if profiled == nil || !reflect.DeepEqual(profiled.Secrets(), tenant.Secrets()) {
		t.Fatalf("profiled secrets %v, tenant secrets %v", profiled.Secrets(), tenant.Secrets())
	}
}

// TestOpsBudgetRegistered checks that aegisd serves its own overhead
// budget: /snapshot carries the budget section and /healthz lists the
// budget probe. A breached budget degrades /healthz but keeps it at 200,
// because the daemon is alive.
func TestOpsBudgetRegistered(t *testing.T) {
	addrCh := make(chan string, 1)
	opsAddrNotify = func(addr string) { addrCh <- addr }
	defer func() { opsAddrNotify = nil }()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-events", "RETIRED_UOPS",
			"-candidates", "30",
			"-tenants", "1",
			"-ticks", "400",
			"-tick-interval", "2ms",
			"-seed", "4",
		})
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not come up in 60s")
	}
	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: body not JSON: %v", path, err)
		}
		return resp.StatusCode
	}
	type health struct {
		Status     string `json:"status"`
		Components map[string]struct {
			State int `json:"state"`
		} `json:"components"`
	}
	var snap struct {
		Budget *struct {
			Target   float64 `json:"target"`
			Breached bool    `json:"breached"`
		} `json:"budget"`
	}
	if code := getJSON("/snapshot", &snap); code != 200 || snap.Budget == nil || snap.Budget.Target != ops.DefaultOverheadTarget {
		t.Fatalf("/snapshot = %d, budget section %+v", code, snap.Budget)
	}
	var h health
	if code := getJSON("/healthz", &h); code != 200 {
		t.Fatalf("/healthz = %d: %+v", code, h)
	}
	if _, ok := h.Components["overhead-budget"]; !ok {
		t.Fatalf("/healthz lists no overhead-budget probe: %+v", h)
	}

	// Breach the budget through the telemetry it is fed from.
	telemetry.Default().Counter(telemetry.MetricObfuscatorInjectedInstructionsTotal).Add(1e15)
	h = health{}
	if code := getJSON("/healthz", &h); code != 200 {
		t.Fatalf("/healthz with a breached budget = %d, want 200: %+v", code, h)
	}
	if h.Status != "degraded" || h.Components["overhead-budget"].State != int(ops.StateDegraded) {
		t.Fatalf("breached budget not reported as degraded: %+v", h)
	}
	if getJSON("/snapshot", &snap); !snap.Budget.Breached {
		t.Fatalf("/snapshot budget not breached: %+v", snap.Budget)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon run: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not stop at the -ticks bound")
	}
}
