package daemon

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
)

// smallConfig is a daemon config around a two-load-variant plan with
// small guests.
func smallConfig(seed uint64) Config {
	var seg []isa.Variant
	for _, v := range isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal {
		if v.Class == isa.ClassLoad && len(seg) < 2 {
			seg = append(seg, v)
		}
	}
	return Config{
		Segment:       seg,
		RefEvent:      hpc.NewAMDEpyc7252Catalog(1).MustByName("RETIRED_UOPS"),
		Seed:          seed,
		VMMemoryBytes: 16 << 10,
	}
}

// TestAttachRunsBuildApp checks that a tenant's secret alphabet is the
// one BuildApp gives for its attach spec, including the secrets <= 0
// default that aegisd's profiling relies on.
func TestAttachRunsBuildApp(t *testing.T) {
	d, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"website", "keystroke", "dnn"} {
		for _, secrets := range []int{-1, 0, 3, 45} {
			name := fmt.Sprintf("%s-%d", app, secrets)
			if err := d.Attach(AttachSpec{Name: name, App: app, Secrets: secrets}); err != nil {
				t.Fatal(err)
			}
			want, err := BuildApp(app, secrets)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.tenants[name].secrets; !reflect.DeepEqual(got, want.Secrets()) {
				t.Errorf("%s: tenant secrets %v, BuildApp secrets %v", name, got, want.Secrets())
			}
		}
	}
	if app, _ := BuildApp("website", 0); len(app.Secrets()) != 4 {
		t.Errorf("BuildApp(website, 0) has %d secrets, want 4", len(app.Secrets()))
	}
}
