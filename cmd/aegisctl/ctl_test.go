package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/ops"
)

// startCtlServer boots a real daemon with its control API on a loopback
// ops server, returning the bound address.
func startCtlServer(t *testing.T) (string, *daemon.Daemon) {
	t.Helper()
	cfg := daemontest.BaseConfig(21)
	cfg.QueueCapacity = 4
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := ops.NewServer(ops.Config{Addr: "127.0.0.1:0", Recorder: d.Journal()})
	srv.RegisterReadiness(d.ReadyProbe())
	srv.Mount(daemon.CtlPrefix, "ctl", d.CtlHandler())
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, d
}

// TestCtlClientSmoke drives every -ctl subcommand against a live daemon
// over real HTTP and checks the envelopes that come back.
func TestCtlClientSmoke(t *testing.T) {
	addr, d := startCtlServer(t)

	ctl := func(args ...string) (string, error) {
		var sb strings.Builder
		err := runCtl(addr, args, &sb)
		return sb.String(), err
	}
	decode := func(t *testing.T, raw string) map[string]any {
		t.Helper()
		var body map[string]any
		if err := json.Unmarshal([]byte(raw), &body); err != nil {
			t.Fatalf("ctl output not JSON: %v\n%s", err, raw)
		}
		if body["schema"] != daemon.CtlSchema {
			t.Fatalf("ctl schema = %v", body["schema"])
		}
		return body
	}

	out, err := ctl("status")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, out)

	if out, err = ctl("attach", "cli-a", "website", "2"); err != nil {
		t.Fatal(err)
	}
	if body := decode(t, out); body["tenant"].(map[string]any)["state"] != "attaching" {
		t.Fatalf("attach envelope: %s", out)
	}
	if _, err = ctl("attach", "cli-a"); err == nil {
		t.Fatal("duplicate attach did not error")
	} else if !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate attach error lacks status: %v", err)
	}

	for i := 0; i < 2; i++ {
		d.Step()
	}
	if out, err = ctl("tenant", "cli-a"); err != nil {
		t.Fatal(err)
	}
	if body := decode(t, out); body["tenant"].(map[string]any)["state"] != "protecting" {
		t.Fatalf("tenant envelope after ticks: %s", out)
	}
	if _, err = ctl("tenant", "ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("missing tenant: %v", err)
	}

	if out, err = ctl("submit", "cli-a", "3"); err != nil {
		t.Fatal(err)
	}
	if body := decode(t, out); body["accepted"].(float64) != 3 {
		t.Fatalf("submit envelope: %s", out)
	}

	if out, err = ctl("reload", `{"epsilon": 2.5}`); err != nil {
		t.Fatal(err)
	}
	if body := decode(t, out); body["daemon"].(map[string]any)["pending_reload"] != true {
		t.Fatalf("reload envelope: %s", out)
	}
	if _, err = ctl("reload", `{"epsilon": -1}`); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("invalid reload: %v", err)
	}

	// @file reload form.
	deltaPath := filepath.Join(t.TempDir(), "delta.json")
	if err := os.WriteFile(deltaPath, []byte(`{"mechanism":"dstar"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = ctl("reload", "@"+deltaPath); err != nil {
		t.Fatalf("@file reload: %v", err)
	}

	if out, err = ctl("list"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"cli-a"`) {
		t.Fatalf("list envelope: %s", out)
	}

	if out, err = ctl("kill", "cli-a"); err != nil {
		t.Fatal(err)
	}
	if body := decode(t, out); body["daemon"].(map[string]any)["tenants"].(float64) != 0 {
		t.Fatalf("kill envelope: %s", out)
	}

	if _, err = ctl("bogus"); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if _, err = ctl("submit", "cli-a", "not-a-number"); err == nil {
		t.Fatal("bad job count accepted")
	}
}
