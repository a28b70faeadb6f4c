package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// traceEvery makes every traceEvery-th measured step of a traced fleet
// run a traced step (telemetry on, counters read around it). The other
// steps run as in the untraced run, interleaved, so the two compare over
// the same fleet state.
const traceEvery = 5

func tracedStep(i int) bool { return i%traceEvery == traceEvery-1 }

// stepStats accumulates Step wall time and tenant-ticks.
type stepStats struct {
	wall  time.Duration
	tt    int64
	perTT []float64 // µs of Step per tenant-tick, one entry per step
}

func (s *stepStats) add(d time.Duration, n int) {
	s.wall += d
	s.tt += int64(n)
	s.perTT = append(s.perTT, float64(d)/float64(time.Microsecond)/float64(n))
}

// runFleetTraced is the traced run: the untraced loop with every fifth
// step traced, then a mirror replay that splits the traced steps' tenant
// work into layers.
//
// The ledger is in worker-µs per tenant-tick: a Step's wall time × the
// workers it keeps busy, over the tenants it ticked. The mirror's layer
// times plus daemon.step_self_us_per_tt (the daemon's barrier, fan-out
// and imbalance) plus ledger.unattributed_us_per_tt (the mirror's queue
// bookkeeping and timer overhead) sum to ledger.total_us_per_tt.
func runFleetTraced(spec fleetSpec, seed uint64, steps int, log io.Writer) *report {
	rep := newReport()
	if steps < traceEvery {
		steps = traceEvery
	}
	reg := telemetry.Default()
	reg.SetEnabled(false)
	defer reg.SetEnabled(true)
	f, _, err := setupRepeated(spec, seed, spec.warmup+steps, 1, rep, log)
	if err != nil {
		rep.check(false, "set-up: %v", err)
		return rep
	}
	draws := telemetry.H(telemetry.MetricObfuscatorMechanismDrawNs, nil)
	rdpmc := telemetry.C(telemetry.MetricHpcRdpmcReadsTotal)
	injected := telemetry.C(telemetry.MetricObfuscatorInjectedInstructionsTotal)
	vcpuSteps := telemetry.C(telemetry.MetricSevVcpuStepsTotal)
	budget := ops.NewOverheadBudget(0)
	var (
		traced, plain    stepStats
		drawCount        uint64
		rdpmcCount       float64
		tracedAlloc      uint64
		before, after    runtime.MemStats
		stepBef, stepAft runtime.MemStats
	)
	// The pace is probed around the stepping loop rather than inside it,
	// which keeps the probe out of the loop's allocation and GC counts.
	pc := newPace()
	pc.burst()
	records := flight.Default().Total() + f.d.Journal().Total()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < steps; i++ {
		if !tracedStep(i) {
			reg.SetEnabled(false)
			plain.add(f.step())
			continue
		}
		runtime.ReadMemStats(&stepBef)
		reg.SetEnabled(true)
		d0, r0, i0, v0 := draws.Count(), rdpmc.Value(), injected.Value(), vcpuSteps.Value()
		traced.add(f.step())
		drawCount += draws.Count() - d0
		rdpmcCount += rdpmc.Value() - r0
		budget.Add(injected.Value()-i0, (vcpuSteps.Value()-v0)*tickBudget)
		reg.SetEnabled(false)
		runtime.ReadMemStats(&stepAft)
		tracedAlloc += stepAft.TotalAlloc - stepBef.TotalAlloc
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	records = flight.Default().Total() + f.d.Journal().Total() - records
	pc.burst()
	rep.set("host.pace_us", median(pc.samples))
	f.verify(rep)
	rep.attempted = f.attempted

	// Daemon-side and deterministic metrics, from outside.
	want := make(map[string]daemon.TenantStatus)
	var offered, shed, degraded, ticks, obfTicks, obfDegraded, retries int64
	for _, st := range f.statuses() {
		want[st.Name] = st
		offered += f.submitted[st.Name] + int64(spec.loadPerTick)*st.Ticks
		shed += st.Shed
		degraded += st.DegradedTicks
		ticks += st.Ticks
		obfTicks += st.Protection.Ticks
		obfDegraded += st.Protection.DegradedTicks
		retries += st.Protection.Retries
	}
	rep.set("daemon.attach_ms", sum(f.attach).Seconds()*1e3/float64(len(f.attach)))
	if len(f.submit) > 0 {
		rep.set("daemon.submit_us", sum(f.submit).Seconds()*1e6/float64(len(f.submit)))
	}
	rep.set("daemon.shed_ratio", ratio(float64(shed), float64(offered)))
	rep.set("daemon.refused_ratio", ratio(float64(shed+degraded), float64(offered+ticks)))
	rep.set("obfuscator.degraded_tick_ratio", ratio(float64(obfDegraded), float64(obfTicks)))
	rep.set("obfuscator.retries_per_tt", ratio(float64(retries), float64(obfTicks)))
	rep.set("obfuscator.defense_overhead_pct", budget.Status().Fraction*100)
	rep.set("obfuscator.draws_per_tt", float64(drawCount)/float64(traced.tt))
	rep.set("hpc.rdpmc_per_tt", rdpmcCount/float64(traced.tt))
	rep.set("flight.records_per_tt", float64(records)/float64(traced.tt+plain.tt))
	rep.set("go.alloc_bytes_per_tt", float64(after.TotalAlloc-before.TotalAlloc-tracedAlloc)/float64(plain.tt))
	rep.set("go.gc_pause_ms_per_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/wall.Seconds())
	rep.set("ledger.trace_overhead_pct", (median(traced.perTT)/median(plain.perTT)-1)*100)

	// Replay the mirror with the daemon's telemetry schedule; release the
	// daemon first so the two fleets are never resident together.
	script := f.script
	f = nil
	runtime.GC()
	mode := func(tick int) tickMode {
		on := tick > spec.warmup && tracedStep(tick-spec.warmup-1)
		return tickMode{telemetry: on, timed: on}
	}
	lt, mismatches, err := replayMirror(spec, seed, script, mode, want)
	if err != nil {
		rep.check(false, "mirror: %v", err)
		return rep
	}
	for _, m := range mismatches {
		rep.check(false, "mirror: %s", m)
	}
	rep.check(lt.ticks == traced.tt, "mirror timed %d tenant-ticks, daemon traced %d", lt.ticks, traced.tt)
	valid := len(mismatches) == 0 && lt.ticks == traced.tt
	if valid {
		rep.set("ledger.valid", 1)
	}
	fmt.Fprintf(log, "mirror_match=%v (%d mismatches)\n", valid, len(mismatches))

	tt := float64(lt.ticks)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / tt }
	workers := parallelism
	if p := runtime.GOMAXPROCS(0); p < workers {
		workers = p
	}
	total := float64(traced.wall) / float64(time.Microsecond) * float64(workers) / float64(traced.tt)
	// The job hand-off line has no metric of its own: it is
	// workload.job_us × workload.jobs_per_tt.
	layers := []struct {
		name   string
		metric bool
		us     float64
	}{
		{"daemon.step_self_us_per_tt", true, total - us(lt.tenantTick)},
		{"workload job hand-off", false, us(lt.jobs)},
		{"workload.runner_us_per_tt", true, us(lt.runner)},
		{"obfuscator.tick_us_per_tt", true, us(lt.obf)},
		{"sev.step_self_us_per_tt", true, us(lt.world - lt.runner - lt.obf)},
		{"ledger.unattributed_us_per_tt", true, us(lt.tenantTick - lt.jobs - lt.world)},
	}
	fmt.Fprintf(log, "ledger (worker-us per tenant-tick over %d traced steps):\n", len(traced.perTT))
	var sumUs float64
	for _, l := range layers {
		fmt.Fprintf(log, "  %-32s %10.3f\n", l.name, l.us)
		sumUs += l.us
		if l.metric {
			rep.set(l.name, l.us)
		}
	}
	fmt.Fprintf(log, "  %-32s %10.3f (layers sum to %.3f)\n", "ledger.total_us_per_tt", total, sumUs)
	rep.set("ledger.total_us_per_tt", total)
	rep.set("workload.job_us", ratio(float64(lt.jobs)/float64(time.Microsecond), float64(lt.jobCount)))
	rep.set("workload.jobs_per_tt", float64(lt.jobCount)/tt)
	instr := float64(lt.runnerInstr + lt.obfInstr)
	rep.set("microarch.sim_instr_per_tt", instr/tt)
	rep.set("microarch.host_ns_per_sim_instr", ratio(float64(lt.runner+lt.obf), instr))

	kernels(rep, spec.mechanism, seed)
	return rep
}
