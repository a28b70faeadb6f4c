package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/repro/aegis/internal/telemetry"
)

// Store metrics: the cache funnel (hits/misses per kind), write volume,
// IO latency and the corrupt-file signal. Wall-clock here feeds the
// latency histograms only; cache contents are pure values, so timing
// never influences campaign results.
var (
	mCorrupt      = telemetry.C("artifact_corrupt_total")
	hLoadSeconds  = telemetry.H("artifact_load_seconds", telemetry.DefBuckets)
	hWriteSeconds = telemetry.H("artifact_write_seconds", telemetry.DefBuckets)
)

// Stats are process-wide artifact-store totals, kept as plain atomics next
// to the telemetry counters so tools (aegis-bench -store) can diff cache
// behaviour around a run without scraping the registry.
type Stats struct {
	Hits    int64
	Misses  int64
	Writes  int64
	Corrupt int64
}

var gHits, gMisses, gWrites, gCorrupt atomic.Int64

// GlobalStats returns the process-wide store totals.
func GlobalStats() Stats {
	return Stats{
		Hits:    gHits.Load(),
		Misses:  gMisses.Load(),
		Writes:  gWrites.Load(),
		Corrupt: gCorrupt.Load(),
	}
}

// Store is a directory of content-addressed artifacts, laid out as
// DIR/<kind>/<fingerprint>.art. A Store is safe for concurrent use: reads
// are plain opens, and writes are temp-file + fsync + atomic rename, so
// racing writers of the same artifact both land a complete, identical
// file.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path returns the artifact file path; kind and fingerprint are generated
// by this module (kind constants, hex sums), so they are path-safe by
// construction — Base guards against hostile inputs anyway.
func (s *Store) path(kind, fingerprint string) string {
	return filepath.Join(s.dir, filepath.Base(kind), filepath.Base(fingerprint)+".art")
}

// Get loads the artifact for (kind, fingerprint). A missing, torn or
// corrupt file is a cache miss (false), never an error: the caller
// recomputes and overwrites, which is always safe because the file name
// is the content address of its inputs.
func (s *Store) Get(kind, fingerprint string) (*Artifact, bool) {
	start := time.Now()
	buf, err := os.ReadFile(s.path(kind, fingerprint))
	if err != nil {
		miss(kind)
		return nil, false
	}
	a, err := decode(buf)
	if err != nil || a.Kind != kind || a.Fingerprint != fingerprint {
		mCorrupt.Inc()
		gCorrupt.Add(1)
		miss(kind)
		return nil, false
	}
	hLoadSeconds.Observe(time.Since(start).Seconds())
	telemetry.C("artifact_cache_hits_total", telemetry.L("kind", kind)).Inc()
	gHits.Add(1)
	return a, true
}

func miss(kind string) {
	telemetry.C("artifact_cache_misses_total", telemetry.L("kind", kind)).Inc()
	gMisses.Add(1)
}

// Put durably writes the artifact: encode, write to a unique temp file in
// the destination directory, fsync, then rename over the final name. A
// crash at any point leaves either the old file, no file, or the complete
// new file — never a torn one.
func (s *Store) Put(a *Artifact) error {
	start := time.Now()
	buf, err := a.encode()
	if err != nil {
		return err
	}
	dst := s.path(a.Kind, a.Fingerprint)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".art-*")
	if err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put %s/%s: %w", a.Kind, a.Fingerprint, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put %s/%s: %w", a.Kind, a.Fingerprint, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put %s/%s: %w", a.Kind, a.Fingerprint, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put %s/%s: %w", a.Kind, a.Fingerprint, err)
	}
	hWriteSeconds.Observe(time.Since(start).Seconds())
	telemetry.C("artifact_writes_total", telemetry.L("kind", a.Kind)).Inc()
	gWrites.Add(1)
	return nil
}

// Entry is one stored artifact as seen by List: identity, schema and
// on-disk size, plus the decoded metadata.
type Entry struct {
	Kind        string
	Fingerprint string
	Schema      string
	Size        int64
	Meta        map[string]string
}

// List walks the store and returns every readable artifact's entry,
// sorted by (kind, fingerprint). Unreadable or corrupt files are skipped.
func (s *Store) List() ([]Entry, error) {
	var out []Entry
	kinds, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: list store: %w", err)
	}
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, kd.Name()))
		if err != nil {
			continue
		}
		for _, fe := range files {
			if fe.IsDir() || !strings.HasSuffix(fe.Name(), ".art") {
				continue
			}
			p := filepath.Join(s.dir, kd.Name(), fe.Name())
			buf, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			a, err := decode(buf)
			if err != nil {
				mCorrupt.Inc()
				gCorrupt.Add(1)
				continue
			}
			out = append(out, Entry{
				Kind:        a.Kind,
				Fingerprint: a.Fingerprint,
				Schema:      Schema,
				Size:        int64(len(buf)),
				Meta:        a.Meta,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out, nil
}
