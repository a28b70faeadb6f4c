package main

import (
	"strings"
	"testing"

	"github.com/repro/aegis/internal/artifact"
)

func TestRun(t *testing.T) {
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
		{name: "store-assert without store-compare", args: []string{"-store-assert"}, wantErr: "-store-assert requires -store-compare"},
		{
			name: "store compare",
			args: []string{"-only", "table3", "-scale", "test", "-telemetry=false", "-store", t.TempDir(), "-store-compare"},
			hits: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := artifact.GlobalStats()
			err := run(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%q) = %v, want nil", tc.args, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
			if hits := artifact.GlobalStats().Hits - before.Hits; tc.hits && hits == 0 {
				t.Fatalf("run(%q) recorded no artifact-store hits", tc.args)
			}
		})
	}
}
