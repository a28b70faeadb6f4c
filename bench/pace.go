package main

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// The host pace probe.
//
// The reference host shares its cores with other VMs, and their load
// changes how fast the same code runs, by about ±20% over minutes. Ten
// consecutive runs share that drift, so their spread does not shrink with
// run length. A run therefore also times a fixed kernel of its own between
// the operations it measures, and reports its timings scaled to a
// reference pace:
//
//	reported = measured × paceRefUs / probe time
//
// Each step is scaled by the probe just before it and each campaign by the
// burst just before it, because the pace also drifts within a run; set-up
// is scaled by the run's median probe. README.md gives the measurements
// behind the kernel's choice.
//
// The kernel is pseudo-random lookups with a data-dependent branch in a Go
// map of 50k entries, on `parallelism` goroutines at once. Each probe runs
// it once untimed, so the timed round finds the map in cache whatever the
// workload left there. The kernel is part of the benchmark's definition:
// changing it rescales every timing.
//
// The probe runs only between operations, while the program is idle: the
// daemon has no goroutines outside Step, and campaigns are probed after a
// collection. Work that a later change moved into the background would
// slow the probe and be scaled away, so standard error also prints every
// timing unscaled.

// paceRefUs is the reference pace: about the probe's median on the
// reference host (2 vCPUs of an Intel Xeon VM), where the medians of two
// sets of 80 runs were 787 and 878 µs. It only sets the scale of the
// reported timings.
const paceRefUs = 850.0

const (
	// paceKeys is the probe map's size and paceLookups the lookups each
	// goroutine makes per round, about a millisecond.
	paceKeys    = 50000
	paceLookups = 20000
	// paceHash spreads the probe's keys over the map.
	paceHash = 2654435761
	// paceInterval is how often a fleet run probes, between steps.
	paceInterval = 100 * time.Millisecond
	// paceBurst is how many probes a burst makes: before each campaign,
	// and around a traced run's timed part.
	paceBurst = 4
)

// pace times the probe kernel and scales timings by it.
type pace struct {
	table   map[uint32]uint32
	acc     []uint32
	samples []float64 // timed rounds, µs
	cur     float64   // the current pace, µs: the last probe or burst
	last    time.Time
}

func newPace() *pace {
	p := &pace{table: make(map[uint32]uint32, paceKeys), acc: make([]uint32, parallelism)}
	for i := uint32(0); i < paceKeys; i++ {
		p.table[i*paceHash] = i
	}
	return p
}

// lookups is one goroutine's share of a round.
func (p *pace) lookups(state uint64) uint32 {
	var acc uint32
	for i := 0; i < paceLookups; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if v, ok := p.table[uint32(state%paceKeys)*paceHash]; ok && v&1 == 0 {
			acc += v
		} else {
			acc ^= uint32(state)
		}
	}
	return acc
}

// round runs the kernel on parallelism goroutines at once and returns its
// wall time.
func (p *pace) round() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for w := range p.acc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.acc[w] += p.lookups(uint64(w)*0x9e3779b97f4a7c15 + 1)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// probe warms the map with one round and records the time of a second.
func (p *pace) probe() {
	p.round()
	d := p.round()
	p.cur = float64(d.Nanoseconds()) / 1e3
	p.samples = append(p.samples, p.cur)
	p.last = time.Now()
}

// burst probes paceBurst times in a row; the current pace is their median.
func (p *pace) burst() {
	n := len(p.samples)
	for i := 0; i < paceBurst; i++ {
		p.probe()
	}
	p.cur = median(p.samples[n:])
}

// due reports whether paceInterval has passed since the last probe.
func (p *pace) due() bool { return time.Since(p.last) >= paceInterval }

// scale is the reference pace over the current one, the factor an
// operation timed now is scaled by: below 1 when the host runs slow. The
// host's pace drifts within a run too, so each operation is scaled by the
// probe just before it rather than by the run's median.
func (p *pace) scale() float64 {
	if p.cur == 0 {
		return 1
	}
	return paceRefUs / p.cur
}

// factor is the reference pace over the run's median probe time. It
// scales set-up, which runs before the first probe.
func (p *pace) factor() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	return paceRefUs / median(p.samples)
}

// report prints the probe's summary.
func (p *pace) report(log io.Writer) {
	fmt.Fprintf(log, "pace: probe median %.1f us, quartile spread %.1f%%, over %d probes (reference %.0f us)\n",
		median(p.samples), relIQR(p.samples)*100, len(p.samples), paceRefUs)
}
