// Package experiment regenerates every table and figure of the paper's
// evaluation (§VIII, §IX) on the simulated SEV world. Each experiment
// returns structured rows/series and renders the same shape of output the
// paper reports; cmd/aegis-bench prints them and bench_test.go wraps each
// in a testing.B benchmark.
//
// Absolute numbers differ from the paper — the substrate is a simulator,
// not an EPYC testbed — but the qualitative results (who wins, by what
// factor, where the crossovers fall) reproduce. EXPERIMENTS.md records
// paper-vs-measured values per experiment.
package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/profiler"
)

// Scale sizes an experiment run. Tests use TestScale; the bench harness
// uses EvalScale. The paper's full scale (45 sites × 1000 loads × 3000
// ticks) is hours of simulation; EvalScale preserves every qualitative
// relationship at a tractable size.
type Scale struct {
	// Sites is the number of website secrets (paper: 45).
	Sites int
	// KeyClasses is the number of keystroke-count secrets (paper: 10).
	KeyClasses int
	// Models is the number of DNN zoo models (paper: 30).
	Models int
	// TracesPerSecret is the recordings per secret (paper: 1000).
	TracesPerSecret int
	// TraceTicks is the recording length (paper: 3000 × 1 ms).
	TraceTicks int
	// Epochs of attack-model training.
	Epochs int
	// SeqEpochs of MEA training.
	SeqEpochs int
	// FuzzCandidates per event (paper fuzzes the full 3407² product).
	FuzzCandidates int
	// RankRepeats per secret in profiling (paper: 100).
	RankRepeats int
	// Parallelism bounds the worker pools of the fuzzing and profiling
	// pipelines; <= 0 means GOMAXPROCS. Results are byte-identical at any
	// value — only wall-clock time changes.
	Parallelism int
	// ArtifactDir, when non-empty, backs the profiling and fuzzing
	// experiments with a versioned artifact store rooted there: campaign
	// shards checkpoint at merge points and matching shards resume on
	// re-runs. Results are byte-identical with or without the store.
	ArtifactDir string
	// FaultPreset names the substrate fault intensity for the robustness
	// experiment ("off", "light", "heavy"); empty means the experiment
	// sweeps all presets. Other experiments run on a healthy substrate
	// regardless, so recorded EXPERIMENTS.md numbers are unaffected.
	FaultPreset string
	// Seed drives everything.
	Seed uint64
}

// TestScale returns a minimal configuration for unit tests.
func TestScale(seed uint64) Scale {
	return Scale{
		Sites:           4,
		KeyClasses:      3,
		Models:          3,
		TracesPerSecret: 6,
		TraceTicks:      80,
		Epochs:          12,
		SeqEpochs:       6,
		FuzzCandidates:  150,
		RankRepeats:     4,
		Seed:            seed,
	}
}

// EvalScale returns the benchmark configuration used for the recorded
// EXPERIMENTS.md numbers.
func EvalScale(seed uint64) Scale {
	return Scale{
		Sites:           8,
		KeyClasses:      6,
		Models:          6,
		TracesPerSecret: 12,
		TraceTicks:      120,
		Epochs:          25,
		SeqEpochs:       10,
		FuzzCandidates:  800,
		RankRepeats:     8,
		Seed:            seed,
	}
}

// Store opens the scale's artifact store, or returns nil (no error) when
// no ArtifactDir is configured.
func (sc Scale) Store() (*artifact.Store, error) {
	if sc.ArtifactDir == "" {
		return nil, nil
	}
	return artifact.Open(sc.ArtifactDir)
}

// profilerConfig is every profiling experiment's configuration: the
// scale's seed, trace length, repeats, parallelism and artifact store, and
// a warm-up window of max(TraceTicks/2, 20) ticks. Callers set only what
// differs, such as WarmupRepeats.
func (sc Scale) profilerConfig() (profiler.Config, error) {
	store, err := sc.Store()
	if err != nil {
		return profiler.Config{}, err
	}
	cfg := profiler.DefaultConfig(sc.Seed)
	cfg.TraceTicks = sc.TraceTicks
	cfg.RankRepeats = sc.RankRepeats
	cfg.WarmupTicks = max(sc.TraceTicks/2, 20)
	cfg.Parallelism = sc.Parallelism
	cfg.Store = store
	return cfg, nil
}

// fuzzerConfig is every fuzzing experiment's configuration: the scale's
// seed, parallelism and artifact store, sampling candidates per event.
func (sc Scale) fuzzerConfig(candidates int) (fuzzer.Config, error) {
	store, err := sc.Store()
	if err != nil {
		return fuzzer.Config{}, err
	}
	cfg := fuzzer.DefaultConfig(sc.Seed)
	cfg.CandidatesPerEvent = candidates
	cfg.Parallelism = sc.Parallelism
	cfg.Store = store
	return cfg, nil
}

// amdLegal returns the cleaned AMD EPYC 7252 instruction variants: the
// pool the fuzzing experiments draw gadgets from and the occupancy probe
// its load.
func amdLegal() []isa.Variant {
	return isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
}

// Epsilons returns the paper's Fig. 9a privacy budget sweep 2^-3 .. 2^3.
func Epsilons() []float64 {
	return []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
}

// EpsilonsAdaptive returns the Fig. 9b sweep 2^-8 .. 2^3.
func EpsilonsAdaptive() []float64 {
	return []float64{1.0 / 256, 1.0 / 64, 1.0 / 16, 0.125, 0.5, 2, 8}
}

// table renders rows with a tabwriter; every experiment's Render goes
// through it for a consistent look.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
