package artifact

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/telemetry"
)

func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := New("profile-trace", "00deadbeef00cafe")
	a.SetMeta("secret", "site-3")
	a.AddSection("slab", []float64{1, 2.5, -3, math.Pi, 0, math.Inf(1)})
	a.AddSection("empty", nil)
	a.AddSection("tail", []float64{42})
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("profile-trace", "00deadbeef00cafe")
	if !ok {
		t.Fatal("stored artifact did not load")
	}
	if got.Kind != a.Kind || got.Fingerprint != a.Fingerprint {
		t.Fatalf("identity drifted: %q/%q", got.Kind, got.Fingerprint)
	}
	if got.Meta["secret"] != "site-3" {
		t.Fatalf("meta drifted: %v", got.Meta)
	}
	slab := got.Section("slab")
	if len(slab) != 6 {
		t.Fatalf("slab section has %d values", len(slab))
	}
	for i, v := range a.Section("slab") {
		if math.Float64bits(slab[i]) != math.Float64bits(v) {
			t.Fatalf("slab[%d]: %v != %v (bit drift)", i, slab[i], v)
		}
	}
	if got.Section("empty") == nil || len(got.Section("empty")) != 0 {
		t.Fatalf("empty section lost: %v", got.Section("empty"))
	}
	if got.Section("absent") != nil {
		t.Fatal("absent section materialised")
	}
	if got.Section("tail")[0] != 42 {
		t.Fatal("tail section drifted")
	}
}

func TestMissOnAbsent(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("profile-trace", "0000000000000000"); ok {
		t.Fatal("absent artifact reported a hit")
	}
}

// TestCorruptIsMiss flips bytes at several offsets (magic, header, slab,
// checksum) and truncates; every mutation must read as a miss, never a
// hit or a panic — a killed campaign may leave any of these on disk.
func TestCorruptIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := New("fuzz-event", "1234567812345678")
	a.AddSection("findings", []float64{1, 2, 3, 4, 5, 6})
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fuzz-event", "1234567812345678.art")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get("fuzz-event", "1234567812345678"); ok {
				t.Fatal("corrupt artifact reported a hit")
			}
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	corrupt("magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("header", func(b []byte) []byte { b[14] ^= 0xff; return b })
	corrupt("slab", func(b []byte) []byte { b[len(b)-12] ^= 0xff; return b })
	corrupt("checksum", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("empty", func(b []byte) []byte { return nil })
	// Sanity: the restored file still hits.
	if _, ok := st.Get("fuzz-event", "1234567812345678"); !ok {
		t.Fatal("restored artifact did not load")
	}
}

// TestWrongIdentityIsMiss covers a renamed/copied file: the embedded
// identity must match the requested one.
func TestWrongIdentityIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := New("profile-score", "aaaaaaaaaaaaaaaa")
	a.AddSection("mi", []float64{0.5})
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "profile-score", "aaaaaaaaaaaaaaaa.art")
	dst := filepath.Join(dir, "profile-score", "bbbbbbbbbbbbbbbb.art")
	buf, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("profile-score", "bbbbbbbbbbbbbbbb"); ok {
		t.Fatal("artifact with mismatched embedded fingerprint reported a hit")
	}
}

func TestPutOverwritesAtomically(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := New("screen-memo", "cccccccccccccccc")
	a.AddSection("ids", []float64{1})
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	b := New("screen-memo", "cccccccccccccccc")
	b.AddSection("ids", []float64{1, 2, 3})
	if err := st.Put(b); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("screen-memo", "cccccccccccccccc")
	if !ok || len(got.Section("ids")) != 3 {
		t.Fatalf("overwrite lost: ok=%v ids=%v", ok, got.Section("ids"))
	}
	// No temp droppings left behind.
	files, err := os.ReadDir(filepath.Join(st.dir, "screen-memo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("store directory holds %d files, want 1", len(files))
	}
}

func TestList(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []struct{ kind, fp string }{
		{"profile-trace", "000000000000000b"},
		{"profile-trace", "000000000000000a"},
		{"fuzz-event", "00000000000000ff"},
	} {
		a := New(id.kind, id.fp)
		a.SetMeta("k", id.kind)
		a.AddSection("s", []float64{1, 2})
		if err := st.Put(a); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt file is skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "fuzz-event", "junk.art"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listed %d entries, want 3", len(entries))
	}
	want := []string{
		"fuzz-event/00000000000000ff",
		"profile-trace/000000000000000a",
		"profile-trace/000000000000000b",
	}
	for i, e := range entries {
		if got := e.Kind + "/" + e.Fingerprint; got != want[i] {
			t.Fatalf("entry %d: %s, want %s", i, got, want[i])
		}
		if e.Schema != Schema || e.Size <= 0 || e.Meta["k"] != e.Kind {
			t.Fatalf("entry %d malformed: %+v", i, e)
		}
	}
}

func TestFingerprint(t *testing.T) {
	base := func() *Fingerprint {
		return NewFingerprint("profile-trace").
			Uint64("seed", 7).String("secret", "site-1").
			Int("ticks", 150).Float("threshold", 0.05).Bool("raw", false)
	}
	if base().Sum() != base().Sum() {
		t.Fatal("fingerprint is not deterministic")
	}
	if len(base().Sum()) != 16 {
		t.Fatalf("sum %q is not 16 hex digits", base().Sum())
	}
	mutants := []*Fingerprint{
		NewFingerprint("fuzz-event").
			Uint64("seed", 7).String("secret", "site-1").
			Int("ticks", 150).Float("threshold", 0.05).Bool("raw", false),
		base().Uint64("extra", 0),
		NewFingerprint("profile-trace").
			Uint64("seed", 8).String("secret", "site-1").
			Int("ticks", 150).Float("threshold", 0.05).Bool("raw", false),
		NewFingerprint("profile-trace").
			Uint64("seed", 7).String("secret", "site-2").
			Int("ticks", 150).Float("threshold", 0.05).Bool("raw", false),
		NewFingerprint("profile-trace").
			Uint64("seed", 7).String("secret", "site-1").
			Int("ticks", 150).Float("threshold", 0.05).Bool("raw", true),
	}
	seen := map[string]bool{base().Sum(): true}
	for i, m := range mutants {
		if seen[m.Sum()] {
			t.Fatalf("mutant %d collides: %s", i, m.Sum())
		}
		seen[m.Sum()] = true
	}
	// Field framing: label/value splits must not alias.
	a := NewFingerprint("k").String("ab", "c").Sum()
	b := NewFingerprint("k").String("a", "bc").Sum()
	if a == b {
		t.Fatal("label/value framing aliases")
	}
}

func TestGlobalStatsMove(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kind := telemetry.L("kind", "gadget-catalog")
	writes := telemetry.C("artifact_writes_total", kind)
	hits := telemetry.C("artifact_cache_hits_total", kind)
	misses := telemetry.C("artifact_cache_misses_total", kind)
	w0, h0, m0 := writes.Value(), hits.Value(), misses.Value()
	a := New("gadget-catalog", "0123456789abcdef")
	a.AddSection("ids", []float64{9})
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	st.Get("gadget-catalog", "0123456789abcdef")
	st.Get("gadget-catalog", "ffffffffffffffff")
	if dw, dh, dm := writes.Value()-w0, hits.Value()-h0, misses.Value()-m0; dw != 1 || dh != 1 || dm != 1 {
		t.Fatalf("counter delta writes=%v hits=%v misses=%v, want 1/1/1", dw, dh, dm)
	}
}

// TestSimFingerprintsPinned pins the core and event fingerprint sums: the
// fuzzer and profiler address their shards with them, so a drift would
// turn every existing store into misses.
func TestSimFingerprintsPinned(t *testing.T) {
	core := NewFingerprint("core").Core(microarch.DefaultCoreConfig()).Sum()
	if core != "c3144328b352e529" {
		t.Errorf("core fingerprint %s, want c3144328b352e529", core)
	}
	ev := NewFingerprint("event").Event(hpc.NewAMDEpyc7252Catalog(1).MustByName("RETIRED_UOPS")).Sum()
	if ev != "83285855b7f87d9f" {
		t.Errorf("event fingerprint %s, want 83285855b7f87d9f", ev)
	}
}
