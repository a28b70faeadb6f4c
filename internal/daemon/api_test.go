package daemon_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/ops"
)

// ctlDo runs one request against the handler and decodes the envelope.
func ctlDo(t *testing.T, h http.Handler, method, path, body string) (int, daemon.CtlResponse) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp daemon.CtlResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s %s: body is not a ctl envelope: %v\n%s", method, path, err, rec.Body.String())
	}
	if resp.Schema != daemon.CtlSchema {
		t.Fatalf("%s %s: schema = %q, want %q", method, path, resp.Schema, daemon.CtlSchema)
	}
	return rec.Code, resp
}

// TestCtlHandlerTable is the aegisd-ctl/v1 handler table: every route's
// happy path plus the error mapping the ISSUE pins — bad tenant → 404,
// malformed JSON → 400, duplicate attach → 409, invalid reload → 400
// with the old config staying live.
func TestCtlHandlerTable(t *testing.T) {
	cfg := daemontest.BaseConfig(7)
	cfg.QueueCapacity = 2
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := d.CtlHandler()

	steps := []struct {
		name, method, path, body string
		wantStatus               int
		check                    func(t *testing.T, resp daemon.CtlResponse)
	}{
		{"daemon status empty", "GET", "/ctl/v1/daemon", "", 200,
			func(t *testing.T, resp daemon.CtlResponse) {
				if resp.Daemon == nil || resp.Daemon.Tenants != 0 {
					t.Fatalf("want empty daemon status, got %+v", resp.Daemon)
				}
			}},
		{"tenant list empty", "GET", "/ctl/v1/tenants", "", 200,
			func(t *testing.T, resp daemon.CtlResponse) {
				if len(resp.Tenants) != 0 {
					t.Fatalf("want no tenants, got %d", len(resp.Tenants))
				}
			}},
		{"tenant missing is 404", "GET", "/ctl/v1/tenant?name=ghost", "", 404, nil},
		{"attach malformed json is 400", "POST", "/ctl/v1/attach", `{"name": `, 400, nil},
		{"attach unknown field is 400", "POST", "/ctl/v1/attach", `{"name":"a","nope":1}`, 400, nil},
		{"attach unknown app is 400", "POST", "/ctl/v1/attach", `{"name":"a","app":"nope"}`, 400, nil},
		{"attach ok", "POST", "/ctl/v1/attach", `{"name":"api-a","app":"website","secrets":2}`, 200,
			func(t *testing.T, resp daemon.CtlResponse) {
				if resp.Tenant == nil || resp.Tenant.State != "attaching" {
					t.Fatalf("attach response: %+v", resp.Tenant)
				}
			}},
		{"duplicate attach is 409", "POST", "/ctl/v1/attach", `{"name":"api-a"}`, 409, nil},
		{"submit ok", "POST", "/ctl/v1/submit", `{"name":"api-a","jobs":2}`, 200,
			func(t *testing.T, resp daemon.CtlResponse) {
				if resp.Accepted != 2 || resp.Shed != 0 {
					t.Fatalf("submit: accepted=%d shed=%d, want 2/0", resp.Accepted, resp.Shed)
				}
			}},
		{"submit to full queue is 429", "POST", "/ctl/v1/submit", `{"name":"api-a","jobs":3}`, 429,
			func(t *testing.T, resp daemon.CtlResponse) {
				if resp.Accepted != 0 || resp.Shed != 3 {
					t.Fatalf("overflow submit: accepted=%d shed=%d, want 0/3", resp.Accepted, resp.Shed)
				}
			}},
		{"submit to missing tenant is 404", "POST", "/ctl/v1/submit", `{"name":"ghost","jobs":1}`, 404, nil},
		{"reload malformed json is 400", "POST", "/ctl/v1/reload", `{"epsilon": }`, 400, nil},
		{"reload unknown field is 400", "POST", "/ctl/v1/reload", `{"epsilonn": 2}`, 400, nil},
		{"reload invalid value is 400", "POST", "/ctl/v1/reload", `{"epsilon": -1}`, 400,
			func(t *testing.T, resp daemon.CtlResponse) {
				if resp.Error == "" {
					t.Fatal("rejected reload carries no error detail")
				}
			}},
		{"old config stays live after rejected reload", "GET", "/ctl/v1/daemon", "", 200,
			func(t *testing.T, resp daemon.CtlResponse) {
				if resp.Daemon.Settings.Epsilon != 1 || resp.Daemon.PendingReload {
					t.Fatalf("rejected reload leaked into settings: %+v", resp.Daemon)
				}
				if resp.Daemon.ReloadRejects != 1 {
					t.Fatalf("reload_rejects = %d, want 1", resp.Daemon.ReloadRejects)
				}
			}},
		{"reload valid stages", "POST", "/ctl/v1/reload", `{"mechanism":"dstar"}`, 200,
			func(t *testing.T, resp daemon.CtlResponse) {
				if !resp.Daemon.PendingReload {
					t.Fatal("valid reload not staged")
				}
			}},
		{"detach missing tenant is 404", "POST", "/ctl/v1/detach", `{"name":"ghost"}`, 404, nil},
		{"detach kill ok", "POST", "/ctl/v1/detach", `{"name":"api-a","kill":true}`, 200,
			func(t *testing.T, resp daemon.CtlResponse) {
				if resp.Daemon.Tenants != 0 || resp.Daemon.Shed != 3+2 {
					t.Fatalf("post-kill status: %+v", resp.Daemon)
				}
			}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			status, resp := ctlDo(t, h, step.method, step.path, step.body)
			if status != step.wantStatus {
				t.Fatalf("status = %d, want %d (error %q)", status, step.wantStatus, resp.Error)
			}
			// 429 is backpressure, not an error: it carries accepted/shed.
			if status >= 400 && status != 429 && resp.Error == "" {
				t.Fatal("error status without error detail")
			}
			if step.check != nil {
				step.check(t, resp)
			}
		})
	}
}

// TestCtlMountedOnOpsServer wires the control API onto a real ops server
// over HTTP and checks the readiness gate is visible on /readyz: open in
// steady state, failed while the daemon sheds.
func TestCtlMountedOnOpsServer(t *testing.T) {
	cfg := daemontest.BaseConfig(11)
	cfg.QueueCapacity = 2
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := ops.NewServer(ops.Config{Addr: "127.0.0.1:0", Recorder: d.Journal()})
	srv.RegisterReadiness(d.ReadyProbe())
	srv.RegisterHealth(d.HealthProbe())
	srv.Mount(daemon.CtlPrefix, "ctl", d.CtlHandler())
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	if code, body := get("/readyz"); code != 200 {
		t.Fatalf("/readyz before load = %d: %s", code, body)
	}
	if code, body := post("/ctl/v1/attach", `{"name":"http-a"}`); code != 200 {
		t.Fatalf("attach over http = %d: %s", code, body)
	}
	// Saturate the queue: overload closes the gate, /readyz goes 503.
	if code, _ := post("/ctl/v1/submit", `{"name":"http-a","jobs":5}`); code != 200 {
		t.Fatalf("saturating submit = %d, want 200 (partial accept)", code)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while overloaded = %d: %s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "shedding load") {
		t.Fatalf("/healthz while overloaded = %d: %s", code, body)
	}
	// Drain and recover.
	for i := 0; i < 2; i++ {
		d.Step()
	}
	if code, body := get("/readyz"); code != 200 {
		t.Fatalf("/readyz after drain = %d: %s", code, body)
	}
	// The ops server serves the daemon journal on /flight.
	if code, body := get("/flight?kind=daemon"); code != 200 || !strings.Contains(body, "tenant:attach") {
		t.Fatalf("/flight = %d: %s", code, body)
	}
	if code, body := get("/ctl/v1/tenants"); code != 200 || !strings.Contains(body, `"http-a"`) {
		t.Fatalf("tenants over http = %d: %s", code, body)
	}
}
