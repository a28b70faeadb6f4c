// Package flight is Aegis's always-on flight recorder: a bounded,
// allocation-free ring journal of typed records describing what the
// protection loop actually did — obfuscator tick outcomes with their
// mechanism and degradation reason, fault injections, PMU saturation and
// re-arm events, SEV world step summaries, and fuzzer/profiler stage
// completions. Like an aircraft flight recorder it runs continuously and
// cheaply, keeping the most recent window of activity so that when an
// incident happens (a degraded tick, an injected fault) the surrounding
// context is already captured and can be dumped as versioned JSONL
// ("aegis-flight/v1", see WriteJSONL).
//
// Instrumented packages record through a pre-registered *Handle obtained
// once in a package-level var (flight.Get(flight.KindFault)); a write is
// a mutex-guarded value store with zero heap allocations, which is what
// lets //aegis:hotpath code (PMU.RDPMC, World.Step, Obfuscator.Step)
// record unconditionally. The alloc gates in make bench-alloc enforce
// this.
//
// Records carry the deterministic world tick, never wall-clock time, so a
// dump of the online protection loop is replay-stable: the same seed
// produces the same journal. Records emitted from parallel offline stages
// (fuzzer/profiler campaigns) are sequenced in arrival order; their
// multiset is deterministic but their interleaving across worker
// goroutines is not, which is why offline stages only record from their
// input-ordered merge points or stage boundaries.
package flight

import (
	"sync"
	"sync/atomic"

	"github.com/repro/aegis/internal/telemetry"
)

// Kind classifies the source subsystem of a record. Kinds are a closed,
// lint-enforced set: the aegis-lint flightkind rule requires every Kind
// argument reaching this package to be one of the registered constants
// below.
type Kind uint8

// Registered record kinds.
const (
	// KindObfuscatorTick is one online obfuscator tick outcome
	// (code = outcome or degradation reason, sub = noise mechanism,
	// a = noise drawn, b = reps injected, c = retries used).
	KindObfuscatorTick Kind = iota
	// KindFault is one injected fault from the faultinject substrate
	// (code = fault kind; always an incident).
	KindFault
	// KindPMU is a PMU counter lifecycle event (code = saturated or
	// re-armed, a = slot index, b = latched value where applicable).
	KindPMU
	// KindWorldStep is a periodic SEV world summary (tick = world tick,
	// a = VMs resident, b = vCPUs stepped that tick).
	KindWorldStep
	// KindStage is an offline pipeline stage completion
	// (code = stage, a/b = stage-specific sizes).
	KindStage
	// KindDaemon is a multi-tenant daemon lifecycle or per-tick summary
	// event (code = daemon event, a = tenant id or live-tenant count,
	// b/c = event-specific counts). Written only from serialized daemon
	// paths, so the daemon journal is byte-identical across replays of
	// the same seed at any parallelism.
	KindDaemon

	numKinds = 6
)

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindObfuscatorTick:
		return "obfuscator-tick"
	case KindFault:
		return "fault"
	case KindPMU:
		return "pmu"
	case KindWorldStep:
		return "world-step"
	case KindStage:
		return "stage"
	case KindDaemon:
		return "daemon"
	default:
		return "unknown"
	}
}

// KindByName resolves a wire name back to its kind.
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Record is one journal entry. The per-kind meaning of Code, Sub and the
// A/B/C payload fields is documented on the Kind constants; Tick is the
// deterministic world tick where one applies (0 for offline stages).
// Records never carry wall-clock time: the journal of the online loop
// must be byte-identical across replays of the same seed.
type Record struct {
	Seq      uint64
	Tick     int64
	Kind     Kind
	Code     Code
	Sub      Code
	Incident bool
	A, B, C  float64
}

// Recorder is a fixed-capacity ring journal. All methods are safe for
// concurrent use; the zero value is not usable — construct with
// NewRecorder or use the process-wide Default.
type Recorder struct {
	seq       atomic.Uint64 // written under mu, read lock-free
	incidents atomic.Uint64

	mu   sync.Mutex
	ring []Record
	next int // ring write position
	full bool

	handles [numKinds]Handle
}

// DefaultCapacity is the ring size of the process-wide recorder: at the
// paper's 10ms tick that is ~41s of per-tick records, comfortably more
// than the window an operator needs around an incident.
const DefaultCapacity = 4096

// NewRecorder builds a recorder holding the last capacity
// records (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	r := &Recorder{ring: make([]Record, capacity)}
	for k := range r.handles {
		r.handles[k] = Handle{rec: r, kind: Kind(k)}
	}
	return r
}

// std is the process-wide recorder used by Get and by Aegis's
// instrumentation. Always-on by default: recording is cheap enough to
// leave running in production, which is the point of a flight recorder.
var std = NewRecorder(DefaultCapacity)

// Default returns the process-wide recorder.
func Default() *Recorder { return std }

// Get returns the process-wide handle for kind. Instrumented packages
// call it once into a package-level var.
func Get(k Kind) *Handle { return std.Handle(k) }

// Handle returns the recorder's pre-registered handle for kind.
func (r *Recorder) Handle(k Kind) *Handle {
	if k >= numKinds {
		return nil
	}
	return &r.handles[k]
}

// Total returns the number of records ever written (the newest seq).
func (r *Recorder) Total() uint64 { return r.seq.Load() }

// Incidents returns the number of incident records ever written.
func (r *Recorder) Incidents() uint64 { return r.incidents.Load() }

// Capacity returns the ring size.
func (r *Recorder) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Snapshot returns the retained records oldest-first. The copy is taken
// under the ring lock; encoding happens on the caller's time.
func (r *Recorder) Snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Record(nil), r.ring[:r.next]...)
	}
	out := make([]Record, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// write appends one record. Zero heap allocations: the hot instrumented
// paths (RDPMC, World.Step, Obfuscator.Step) call this on every tick and
// the bench-alloc gates hold them to 0 allocs/op.
//
//aegis:hotpath
func (r *Recorder) write(k Kind, tick int64, code, sub Code, incident bool, a, b, c float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	seq := r.seq.Load() + 1
	r.seq.Store(seq)
	r.ring[r.next] = Record{
		Seq: seq, Tick: tick, Kind: k, Code: code, Sub: sub,
		Incident: incident, A: a, B: b, C: c,
	}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	if incident {
		r.incidents.Add(1)
	}
	r.mu.Unlock()
	mRecords[k].Inc()
	if incident {
		mIncidents.Inc()
	}
}

// Handle is a pre-registered writer for one record kind. A nil handle is
// valid and inert. Handles are obtained once (Get / Recorder.Handle) and
// shared; both methods are safe for concurrent use.
type Handle struct {
	rec  *Recorder
	kind Kind
}

// Record journals one non-incident record.
//
//aegis:hotpath
func (h *Handle) Record(tick int64, code, sub Code, a, b, c float64) {
	if h == nil {
		return
	}
	h.rec.write(h.kind, tick, code, sub, false, a, b, c)
}

// Incident journals one incident record: it carries Incident=true in the
// dump and counts toward the recorder's incident total.
//
//aegis:hotpath
func (h *Handle) Incident(tick int64, code, sub Code, a, b, c float64) {
	if h == nil {
		return
	}
	h.rec.write(h.kind, tick, code, sub, true, a, b, c)
}

// Per-kind record counters plus the incident counter, eagerly created so
// hot-path writes never take the registry lookup path.
var (
	mRecords = func() [numKinds]*telemetry.Counter {
		var out [numKinds]*telemetry.Counter
		for k := range out {
			out[k] = telemetry.C("flight_records_total", telemetry.L("kind", Kind(k).String()))
		}
		return out
	}()
	mIncidents = telemetry.C("flight_incidents_total")
)
