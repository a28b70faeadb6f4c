package daemon

import (
	"errors"
	"fmt"
	"testing"

	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// TestEveryBuildAppSecretBuilds pins the contract that makes a job build
// error at start unreachable: every secret of every alphabet BuildApp
// accepts builds a job. A tenant's backlog stores only the secret's
// index, so an item that could not build would surface long after its
// hand-off was counted.
func TestEveryBuildAppSecretBuilds(t *testing.T) {
	r := rng.New(1)
	check := func(name string, secrets int) {
		t.Helper()
		app, err := BuildApp(name, secrets)
		if err != nil {
			t.Fatalf("BuildApp(%q, %d): %v", name, secrets, err)
		}
		if len(app.Secrets()) == 0 {
			t.Fatalf("BuildApp(%q, %d) has no secrets", name, secrets)
		}
		for _, s := range app.Secrets() {
			if _, err := app.Job(s, r); err != nil {
				t.Errorf("BuildApp(%q, %d): secret %q does not build: %v", name, secrets, s, err)
			}
		}
	}
	for n := -1; n <= len(workload.Websites())+1; n++ {
		check("website", n)
	}
	for n := -1; n <= 11; n++ {
		check("keystroke", n)
	}
	check("dnn", 0)
	if app, _ := BuildApp("dnn", 0); len(app.Secrets()) != len(workload.ModelZoo()) {
		t.Errorf("dnn alphabet has %d models, want the full zoo of %d", len(app.Secrets()), len(workload.ModelZoo()))
	}
}

// failingApp is a tenant app whose jobs never build.
type failingApp struct{ workload.App }

func (failingApp) Job(string, *rng.Source) (workload.Job, error) {
	return workload.Job{}, errors.New("broken app")
}

// TestJobBuildErrorIsLoud drives the start-time build error path: the
// item is dropped, counted in the tenant funnel and
// daemon_job_errors_total, journaled as an incident at the barrier, and
// the runner idles that tick instead of starting the next item.
func TestJobBuildErrorIsLoud(t *testing.T) {
	d, err := New(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(AttachSpec{Name: "broken"}); err != nil {
		t.Fatal(err)
	}
	tn := d.tenants["broken"]
	tn.app = failingApp{tn.app}
	if _, err := d.Submit("broken", 3); err != nil {
		t.Fatal(err)
	}
	errsBefore := telemetry.C("daemon_job_errors_total").Value()
	for tick := int64(1); tick <= 2; tick++ {
		d.Step()
		jf, err := d.TenantJobs("broken")
		if err != nil {
			t.Fatal(err)
		}
		want := JobFunnel{Backlog: 3 - tick, Errors: tick}
		if jf != want {
			t.Fatalf("tick %d: job funnel %+v, want %+v", tick, jf, want)
		}
		if st, _ := d.TenantStatus("broken"); st.Processed != 3 || st.Shed != 0 {
			t.Fatalf("tick %d: processed %d shed %d, want 3 hand-offs and no shed", tick, st.Processed, st.Shed)
		}
	}
	if got := telemetry.C("daemon_job_errors_total").Value() - errsBefore; got != 2 {
		t.Errorf("daemon_job_errors_total grew by %v, want 2", got)
	}
	var incidents []string
	for _, rec := range d.Journal().Snapshot() {
		if rec.Code == flight.CodeTenantJobError {
			incidents = append(incidents, fmt.Sprintf("tick %d incident %v tenant %v count %v", rec.Tick, rec.Incident, rec.A, rec.B))
		}
	}
	want := []string{
		fmt.Sprintf("tick 1 incident true tenant %d count 1", tn.id),
		fmt.Sprintf("tick 2 incident true tenant %d count 1", tn.id),
	}
	if fmt.Sprint(incidents) != fmt.Sprint(want) {
		t.Errorf("job-error records %q, want %q", incidents, want)
	}
}
