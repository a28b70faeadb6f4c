package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// TestHandOffDigestsPinned pins the job schedule of a daemon fleet along
// every path that moves work from a tenant's queue into its guest: several
// job completions and starts on website, keystroke and dnn tenants,
// submit bursts past the queue capacity, a reload that shrinks the queue
// with overflow (so the secret sequence skips the shed items), a graceful
// drain and a kill-detach with work still handed off, under faults off
// and light. Each digest hashes every tenant's obfuscator outcome per
// tick, its runner's finished jobs (label, first and last tick), the
// daemon journal and every status, so a job built from a different
// secret, random stream or tick moves it.
func TestHandOffDigestsPinned(t *testing.T) {
	want := map[string]string{
		"laplace/off":   "f976e6dcc8b20488",
		"laplace/light": "92303a90722985d1",
		"dstar/light":   "7584e59a919287f9",
	}
	for name, w := range want {
		mech, preset, _ := strings.Cut(name, "/")
		if got := handOffDigest(t, mech, preset); got != w {
			t.Errorf("%s: digest %s, want %s", name, got, w)
		}
	}
}

// handOffDigest runs the pinned hand-off scenario under mech and the named
// fault preset and returns its digest.
func handOffDigest(t *testing.T, mech, preset string) string {
	t.Helper()
	fcfg, err := faultinject.Preset(preset, 21)
	if err != nil {
		t.Fatal(err)
	}
	var seg []isa.Variant
	for _, v := range isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal {
		if (v.Class == isa.ClassLoad || v.Class == isa.ClassFlush) && len(seg) < 4 {
			seg = append(seg, v)
		}
	}
	d, err := New(Config{
		Segment:         seg,
		RefEvent:        hpc.NewAMDEpyc7252Catalog(1).MustByName("RETIRED_UOPS"),
		Mechanism:       mech,
		Seed:            21,
		VMMemoryBytes:   16 << 10,
		JournalCapacity: 1 << 15,
		QueueCapacity:   8,
		MaxItemsPerTick: 3,
		LoadPerTick:     2,
		Faults:          fcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []AttachSpec{
		{Name: "web", Secrets: 3},
		{Name: "keys", App: "keystroke", Secrets: 4},
		{Name: "dnn", App: "dnn"},
		{Name: "drain", Secrets: 5},
		{Name: "kill", App: "keystroke", Secrets: 3},
	} {
		if err := d.Attach(spec); err != nil {
			t.Fatal(err)
		}
	}
	three, eight := 3, 8
	h := sha256.New()
	var tenants []*Tenant
	tenants = append(tenants, d.order...)
	logs := make([]*jobLog, len(tenants))
	for i, tn := range tenants {
		logs[i] = &jobLog{}
		tn.app = labelApp{tn.app, logs[i]}
	}
	for tick := 1; tick <= 1000; tick++ {
		switch tick {
		case 10:
			if _, err := d.Submit("web", 20); err != nil {
				t.Fatal(err)
			}
		case 30:
			if _, err := d.Submit("keys", 8); err != nil {
				t.Fatal(err)
			}
			if err := d.Reload(Tunables{QueueCapacity: &three}); err != nil {
				t.Fatal(err)
			}
		case 40:
			if err := d.Reload(Tunables{QueueCapacity: &eight}); err != nil {
				t.Fatal(err)
			}
		case 60:
			if _, err := d.Submit("drain", 6); err != nil {
				t.Fatal(err)
			}
			if err := d.Detach("drain", false); err != nil {
				t.Fatal(err)
			}
		case 400:
			if _, err := d.Submit("kill", 5); err != nil {
				t.Fatal(err)
			}
			if err := d.Detach("kill", true); err != nil {
				t.Fatal(err)
			}
		}
		d.Step()
		for _, tn := range d.order {
			fmt.Fprintf(h, "tick %d %s %+v\n", tick, tn.name, tn.obf.LastTick())
		}
		for i, tn := range tenants {
			logs[i].observe(t, tn)
		}
	}
	var sb strings.Builder
	if err := d.Journal().WriteJSONL(&sb, flight.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	h.Write([]byte(sb.String()))
	for i, tn := range tenants {
		fmt.Fprintf(h, "timings %s %+v\n", tn.name, logs[i].timings)
		fmt.Fprintf(h, "tenant %+v\n", d.tenantStatusLocked(tn))
	}
	fmt.Fprintf(h, "daemon %+v\n", d.Status())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// jobTiming is one finished job of a tenant: its label and its first and
// last world tick.
type jobTiming struct {
	Label     string
	StartTick int64
	EndTick   int64
}

// jobLog rebuilds a tenant's finished jobs in order. A runner keeps only
// a count of finished jobs and their summed ticks, and finishes at most
// one job per tick, so a job ends on the tick the count moves and lasts
// what the sum grew by; its label is the next one the tenant built.
type jobLog struct {
	labels  []string
	ticks   int64
	timings []jobTiming
}

func (l *jobLog) observe(t *testing.T, tn *Tenant) {
	t.Helper()
	switch n := tn.runner.Completed(); {
	case n == len(l.timings):
		return
	case n != len(l.timings)+1:
		t.Fatalf("%s: %d jobs finished in one tick", tn.name, n-len(l.timings))
	}
	end, ticks := tn.guest.World.Tick(), tn.runner.JobTicks()
	l.timings = append(l.timings, jobTiming{
		Label: l.labels[len(l.timings)], StartTick: end - (ticks - l.ticks), EndTick: end,
	})
	l.ticks = ticks
}

// labelApp logs the label of every job its app builds.
type labelApp struct {
	workload.App
	log *jobLog
}

func (a labelApp) Job(secret string, r *rng.Source) (workload.Job, error) {
	job, err := a.App.Job(secret, r)
	if err == nil {
		a.log.labels = append(a.log.labels, job.Label)
	}
	return job, err
}
