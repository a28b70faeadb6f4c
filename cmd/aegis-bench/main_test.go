package main

import (
	"strings"
	"testing"

	"github.com/repro/aegis/internal/telemetry"
)

func TestRun(t *testing.T) {
	store := []string{"-only", "table3", "-scale", "test", "-telemetry=false", "-store", t.TempDir()}
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; empty means run must succeed
		hits    bool   // the run must record artifact-store cache hits
	}{
		{name: "list", args: []string{"-list"}},
		{name: "unknown scale", args: []string{"-scale", "huge"}, wantErr: `unknown scale "huge"`},
		{name: "unknown only name", args: []string{"-only", "table1,tabel3", "-scale", "test"}, wantErr: `"tabel3"`},
		{name: "negative parallelism", args: []string{"-parallelism", "-1", "-scale", "test"}, wantErr: "-parallelism"},
		// The first run fills the store; the second resumes from it.
		{name: "store cold", args: store},
		{name: "store warm", args: store, hits: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := storeHits()
			err := run(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%q) = %v, want nil", tc.args, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
			if hits := storeHits() - before; tc.hits && hits == 0 {
				t.Fatalf("run(%q) recorded no artifact-store hits", tc.args)
			}
		})
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
