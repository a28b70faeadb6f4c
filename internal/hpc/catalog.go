// Package hpc simulates the hardware-performance-counter subsystem of a
// processor: a large per-model catalog of countable events (hardware,
// software, hardware-cache, tracepoint, raw-CPU and other events, matching
// the paper's Table II taxonomy) and a per-core PMU with four programmable
// counter registers read via an RDPMC analog. Like the paper's monitoring
// setup, at most four events are counted at once, so time multiplexing is
// never modelled.
//
// Events derive their counts from the raw micro-event signals of a
// microarch.Core, so they respond mechanistically to executed instructions.
// Reads carry measurement noise (paper challenge C2): external interference
// means HPCs never count perfectly.
//
// Concurrency contract: a Catalog and its Events are immutable after
// construction and safe for concurrent reads, which is what lets the
// parallel fuzzing and profiling pipelines share one catalog across worker
// shards. A PMU (and the Core it reads) is single-goroutine state — each
// worker must own a private PMU/Core/bench, never share one across shards.
package hpc

import (
	"fmt"
	"strings"

	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
)

// EventType is the perf-subsystem taxonomy of paper Table II.
type EventType int

// Event types.
const (
	TypeHardware      EventType = iota + 1 // H
	TypeSoftware                           // S
	TypeHardwareCache                      // HC
	TypeTracepoint                         // T
	TypeRaw                                // R
	TypeOther                              // O
)

var typeCodes = map[EventType]string{
	TypeHardware:      "H",
	TypeSoftware:      "S",
	TypeHardwareCache: "HC",
	TypeTracepoint:    "T",
	TypeRaw:           "R",
	TypeOther:         "O",
}

// Code returns the short code used in the paper's tables.
func (t EventType) Code() string {
	if c, ok := typeCodes[t]; ok {
		return c
	}
	return fmt.Sprintf("type(%d)", int(t))
}

func (t EventType) String() string { return t.Code() }

// AllEventTypes lists the types in table order.
func AllEventTypes() []EventType {
	return []EventType{TypeHardware, TypeSoftware, TypeHardwareCache,
		TypeTracepoint, TypeRaw, TypeOther}
}

// Term is one weighted raw signal in an event's derivation formula.
type Term struct {
	Signal int // index into microarch.Counters.Vector()
	Weight float64
}

// Event is one countable performance event.
type Event struct {
	ID   int
	Name string
	Type EventType
	// GuestVisible events can change in response to guest-VM activity;
	// host-only events (most tracepoints, software and "other" events)
	// never do, which is what the warm-up profiling filters on.
	GuestVisible bool
	// Terms is the derivation formula over raw core signals. Host-only
	// events have no terms.
	Terms []Term
	// NoiseSigma is the relative measurement noise of a read (fraction of
	// the true count).
	NoiseSigma float64
}

// Value computes the true (noise-free) event count for a raw-signal delta
// vector.
func (e *Event) Value(signals []float64) float64 {
	var v float64
	for _, t := range e.Terms {
		if t.Signal >= 0 && t.Signal < len(signals) {
			v += t.Weight * signals[t.Signal]
		}
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Catalog is the full event list of one processor model.
type Catalog struct {
	Processor string
	Family    string
	Events    []*Event

	byName map[string]*Event
}

// signal indices into microarch.Counters.Vector(); kept in sync with
// microarch.SignalNames by TestSignalIndices.
const (
	sigCycles = iota
	sigInstructions
	sigUops
	sigLoadsDisp
	sigStoresDisp
	sigL1DAccesses
	sigL1DMisses
	sigL1DWrites
	sigRefillsL2
	sigRefillsSystem
	sigL1IAccesses
	sigL1IMisses
	sigL2Accesses
	sigL2Misses
	sigMABAlloc
	sigDTLBAccesses
	sigDTLBMisses
	sigITLBMisses
	sigBranchesRet
	sigBranchMispred
	sigX87Ops
	sigSSEOps
	sigAVXOps
	sigMulOps
	sigDivOps
	sigBitOps
	sigStringOps
	sigCryptoOps
	sigPrefetches
	sigCacheFlushes
	sigFences
	sigSerializeOps
	sigStackOps
	sigMemReads
	sigMemWrites
	sigPageFaults
	sigInterrupts
	sigCtxSwitches
)

// Named events the paper uses directly. They appear in every catalog with
// fixed derivation formulas so experiments can reference them by name.
var namedHardwareEvents = []struct {
	name  string
	typ   EventType
	terms []Term
}{
	{"RETIRED_UOPS", TypeRaw, []Term{{sigUops, 1}}},
	{"LS_DISPATCH", TypeRaw, []Term{{sigLoadsDisp, 1}, {sigStoresDisp, 1}}},
	{"MAB_ALLOCATION_BY_PIPE", TypeRaw, []Term{{sigMABAlloc, 1}}},
	{"DATA_CACHE_REFILLS_FROM_SYSTEM", TypeRaw, []Term{{sigRefillsSystem, 1}}},
	{"HW_CACHE_L1D:WRITE", TypeHardwareCache, []Term{{sigL1DWrites, 1}}},
	{"HW_CACHE_L1D:READ", TypeHardwareCache, []Term{{sigL1DAccesses, 1}, {sigL1DWrites, -1}}},
	{"HW_CACHE_L1D:MISS", TypeHardwareCache, []Term{{sigL1DMisses, 1}}},
	{"MEM_LOAD_UOPS_RETIRED:L1_HIT", TypeRaw, []Term{{sigL1DAccesses, 1}, {sigL1DMisses, -1}}},
	{"RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR", TypeRaw, []Term{{sigSSEOps, 1}}},
	{"RETIRED_INSTRUCTIONS", TypeHardware, []Term{{sigInstructions, 1}}},
	{"CPU_CYCLES", TypeHardware, []Term{{sigCycles, 1}}},
	{"BRANCH_INSTRUCTIONS_RETIRED", TypeHardware, []Term{{sigBranchesRet, 1}}},
	{"BRANCH_MISSES_RETIRED", TypeHardware, []Term{{sigBranchMispred, 1}}},
	{"L2_CACHE_ACCESSES", TypeRaw, []Term{{sigL2Accesses, 1}}},
	{"L2_CACHE_MISSES", TypeRaw, []Term{{sigL2Misses, 1}}},
	{"DTLB_MISSES", TypeRaw, []Term{{sigDTLBMisses, 1}}},
	{"RETIRED_X87_FP_OPS", TypeRaw, []Term{{sigX87Ops, 1}}},
	{"RETIRED_AVX_OPS", TypeRaw, []Term{{sigAVXOps, 1}}},
	{"DIV_OP_COUNT", TypeRaw, []Term{{sigDivOps, 1}}},
	{"PREFETCH_INSTRS_DISPATCHED", TypeRaw, []Term{{sigPrefetches, 1}}},
	{"CACHE_LINE_FLUSHES", TypeRaw, []Term{{sigCacheFlushes, 1}}},
	{"SERIALIZING_OPS", TypeRaw, []Term{{sigSerializeOps, 1}}},
}

// typeMix is the per-type event count plan of a catalog.
type typeMix struct {
	h, s, hc, t, r, o int
	// guest-visible fractions per type (paper Table II brackets).
	tVisible float64
	rVisible float64
}

// CatalogSpec identifies one of the four evaluated processor models.
type CatalogSpec struct {
	Processor string
	Family    string
	mix       typeMix
	// mutateFrom introduces n event-name differences relative to the base
	// family member (paper Table I: E5-4617 differs from E5-1650 in 14
	// events; EPYC 7313P differs from 7252 in 0).
	mutations int
}

// Processor model specs. Counts follow paper Tables I and II:
// Intel Xeon E5-1650 has 6166 events (H .39%, S .31%, HC 1.00%, T 36.15%,
// R 7.75%, O 54.40%); AMD EPYC 7252 has 1903 events (H 1.26%, S 1.00%,
// HC 3.26%, T 87.17%, R 5.20%, O 2.11%).
var (
	specIntelE51650 = CatalogSpec{
		Processor: "Intel Xeon E5-1650", Family: "intel-e5",
		mix: typeMix{h: 24, s: 19, hc: 62, t: 2229, r: 478, o: 3354,
			tVisible: 0.0798, rVisible: 0.9937},
	}
	specIntelE54617 = CatalogSpec{
		Processor: "Intel Xeon E5-4617", Family: "intel-e5",
		mix: typeMix{h: 24, s: 19, hc: 62, t: 2233, r: 480, o: 3354,
			tVisible: 0.0798, rVisible: 0.9937},
		mutations: 14,
	}
	specAMD7252 = CatalogSpec{
		Processor: "AMD EPYC 7252", Family: "amd-epyc",
		mix: typeMix{h: 24, s: 19, hc: 62, t: 1659, r: 99, o: 40,
			tVisible: 0.0157, rVisible: 0.9183},
	}
	specAMD7313P = CatalogSpec{
		Processor: "AMD EPYC 7313P", Family: "amd-epyc",
		mix: typeMix{h: 24, s: 19, hc: 62, t: 1659, r: 99, o: 40,
			tVisible: 0.0157, rVisible: 0.9183},
	}
)

// NewIntelXeonE51650Catalog builds the Intel E5-1650 catalog.
func NewIntelXeonE51650Catalog(seed uint64) *Catalog { return buildCatalog(specIntelE51650, seed) }

// NewIntelXeonE54617Catalog builds the Intel E5-4617 catalog.
func NewIntelXeonE54617Catalog(seed uint64) *Catalog { return buildCatalog(specIntelE54617, seed) }

// NewAMDEpyc7252Catalog builds the AMD EPYC 7252 catalog.
func NewAMDEpyc7252Catalog(seed uint64) *Catalog { return buildCatalog(specAMD7252, seed) }

// NewAMDEpyc7313PCatalog builds the AMD EPYC 7313P catalog.
func NewAMDEpyc7313PCatalog(seed uint64) *Catalog { return buildCatalog(specAMD7313P, seed) }

// CatalogByProcessor resolves a processor model string (as reported by
// attestation) to its catalog constructor.
func CatalogByProcessor(processor string, seed uint64) (*Catalog, error) {
	switch processor {
	case specIntelE51650.Processor:
		return NewIntelXeonE51650Catalog(seed), nil
	case specIntelE54617.Processor:
		return NewIntelXeonE54617Catalog(seed), nil
	case specAMD7252.Processor:
		return NewAMDEpyc7252Catalog(seed), nil
	case specAMD7313P.Processor:
		return NewAMDEpyc7313PCatalog(seed), nil
	default:
		return nil, fmt.Errorf("hpc: unknown processor model %q", processor)
	}
}

// hardwareSignals are the raw signals guest-visible events may derive from.
var hardwareSignals = []int{
	sigCycles, sigInstructions, sigUops, sigLoadsDisp, sigStoresDisp,
	sigL1DAccesses, sigL1DMisses, sigL1DWrites, sigRefillsL2,
	sigRefillsSystem, sigL1IAccesses, sigL1IMisses, sigL2Accesses,
	sigL2Misses, sigMABAlloc, sigDTLBAccesses, sigDTLBMisses, sigITLBMisses,
	sigBranchesRet, sigBranchMispred, sigX87Ops, sigSSEOps, sigAVXOps,
	sigMulOps, sigDivOps, sigBitOps, sigStringOps, sigCryptoOps,
	sigPrefetches, sigCacheFlushes, sigFences, sigSerializeOps, sigStackOps,
	sigMemReads, sigMemWrites,
}

// rareSignals move only for specialised instruction mixes; events derived
// exclusively from them survive the warm-up but are filtered out by
// app-specific profiling for workloads that never touch them.
var rareSignals = []int{
	sigX87Ops, sigCryptoOps, sigStringOps, sigBitOps, sigDivOps,
	sigPrefetches, sigCacheFlushes, sigFences, sigSerializeOps,
}

func buildCatalog(spec CatalogSpec, seed uint64) *Catalog {
	r := rng.New(seed).Split("hpc/" + spec.Family)
	cat := &Catalog{
		Processor: spec.Processor,
		Family:    spec.Family,
		byName:    make(map[string]*Event),
	}
	add := func(e *Event) {
		e.ID = len(cat.Events)
		cat.Events = append(cat.Events, e)
		cat.byName[e.Name] = e
	}

	// 1. Named events with fixed formulas.
	for _, n := range namedHardwareEvents {
		add(&Event{
			Name:         n.name,
			Type:         n.typ,
			GuestVisible: true,
			Terms:        append([]Term(nil), n.terms...),
			NoiseSigma:   0.015,
		})
	}

	counts := map[EventType]int{
		TypeHardware:      spec.mix.h,
		TypeSoftware:      spec.mix.s,
		TypeHardwareCache: spec.mix.hc,
		TypeTracepoint:    spec.mix.t,
		TypeRaw:           spec.mix.r,
		TypeOther:         spec.mix.o,
	}
	// Named events already consumed part of each type budget.
	for _, e := range cat.Events {
		counts[e.Type]--
	}

	// 2. Generated hardware-class events (H, HC, R): random sparse
	// formulas over hardware signals; all guest-visible except the
	// configured fraction of raw events.
	genHW := func(typ EventType, n int, prefix string, visibleFrac float64) {
		for i := 0; i < n; i++ {
			visible := r.Float64() < visibleFrac
			e := &Event{
				Name:         fmt.Sprintf("%s_%04d", prefix, i),
				Type:         typ,
				GuestVisible: visible,
				NoiseSigma:   0.01 + r.Float64()*0.03,
			}
			if visible {
				// 25% of generated events derive only from rare
				// signals, so app-specific profiling thins them out.
				pool := hardwareSignals
				if r.Float64() < 0.25 {
					pool = rareSignals
				}
				nTerms := 1 + r.Intn(3)
				seen := make(map[int]bool, nTerms)
				for t := 0; t < nTerms; t++ {
					sig := pool[r.Intn(len(pool))]
					if seen[sig] {
						continue
					}
					seen[sig] = true
					e.Terms = append(e.Terms, Term{Signal: sig, Weight: 0.2 + r.Float64()*1.3})
				}
			}
			add(e)
		}
	}
	genHW(TypeHardware, counts[TypeHardware], "HW_GENERIC", 1.0)
	genHW(TypeHardwareCache, counts[TypeHardwareCache], "HW_CACHE_GEN", 1.0)
	genHW(TypeRaw, counts[TypeRaw], "RAW_PMC", spec.mix.rVisible)

	// 3. Software events: host-kernel constructs (cpu-clock, faults seen
	// by the host), never guest-visible through SEV.
	for i := 0; i < counts[TypeSoftware]; i++ {
		add(&Event{
			Name:       fmt.Sprintf("SW_%04d", i),
			Type:       TypeSoftware,
			NoiseSigma: 0.05,
		})
	}

	// 4. Tracepoints: host kernel tracepoints; only the fraction attached
	// to VM-exit-adjacent paths reflect guest activity.
	for i := 0; i < counts[TypeTracepoint]; i++ {
		visible := r.Float64() < spec.mix.tVisible
		e := &Event{
			Name:         fmt.Sprintf("TP_syscalls_%04d", i),
			Type:         TypeTracepoint,
			GuestVisible: visible,
			NoiseSigma:   0.04,
		}
		if visible {
			// VM-exit related tracepoints follow interrupt/context-switch
			// and page-fault activity.
			e.Terms = []Term{
				{Signal: sigInterrupts, Weight: 1 + r.Float64()},
				{Signal: sigCtxSwitches, Weight: r.Float64()},
				{Signal: sigPageFaults, Weight: r.Float64()},
			}
		}
		add(e)
	}

	// 5. Other events: breakpoints and similar low-level facilities that
	// normal VM applications never invoke.
	for i := 0; i < counts[TypeOther]; i++ {
		add(&Event{
			Name:       fmt.Sprintf("OTHER_bp_%04d", i),
			Type:       TypeOther,
			NoiseSigma: 0.05,
		})
	}

	// 6. Family mutations: rename N generated events so same-family models
	// differ in exactly the configured number of event names.
	if spec.mutations > 0 {
		mutated := 0
		for _, e := range cat.Events {
			if mutated >= spec.mutations {
				break
			}
			if strings.HasPrefix(e.Name, "RAW_PMC_") || strings.HasPrefix(e.Name, "TP_") {
				delete(cat.byName, e.Name)
				e.Name = e.Name + "_V2"
				cat.byName[e.Name] = e
				mutated++
			}
		}
	}

	return cat
}

// ByName resolves an event by name.
func (c *Catalog) ByName(name string) (*Event, bool) {
	e, ok := c.byName[name]
	return e, ok
}

// MustByName resolves a known-present event; it panics on a missing name,
// which indicates a catalog construction bug rather than a runtime input.
func (c *Catalog) MustByName(name string) *Event {
	e, ok := c.byName[name]
	if !ok {
		panic("hpc: missing catalog event " + name)
	}
	return e
}

// Size returns the total number of events.
func (c *Catalog) Size() int { return len(c.Events) }

// TypeCounts returns the number of events per type.
func (c *Catalog) TypeCounts() map[EventType]int {
	out := make(map[EventType]int, 6)
	for _, e := range c.Events {
		out[e.Type]++
	}
	return out
}

// DifferentEvents returns the number of event names present in exactly one
// of the two catalogs (paper Table I's "# of Different Events" row).
func DifferentEvents(a, b *Catalog) int {
	diff := 0
	//aegis:allow(maprange) order-insensitive membership count; only the total is observable
	for name := range a.byName {
		if _, ok := b.byName[name]; !ok {
			diff++
		}
	}
	//aegis:allow(maprange) order-insensitive membership count; only the total is observable
	for name := range b.byName {
		if _, ok := a.byName[name]; !ok {
			diff++
		}
	}
	return diff
}

// SignalIndexCount is the number of raw signals events may reference.
// It must match microarch.NumSignals; the tests enforce this.
const SignalIndexCount = sigCtxSwitches + 1

var _ = microarch.NumSignals // dependency documented for signal ordering
