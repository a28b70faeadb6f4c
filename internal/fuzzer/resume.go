// Code in this file is the fuzzer's artifact-store integration: campaign
// resume for per-event searches and persistence of the cross-event
// screening memo. Cached values are pure — findings are functions of
// (seed, legal list, event, campaign config) and signatures of (gadget,
// core config) — so a resumed campaign is byte-identical to a cold one
// (pinned by TestFuzzResumeByteIdentical). Failed events are never
// cached: an error must re-run.
package fuzzer

import (
	"sort"
	"strconv"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/telemetry"
)

// Fuzz artifact kinds: one findings artifact per (event, campaign
// config), one screening memo per (legal list, core config).
const (
	kindFuzzEvent  = "fuzz-event"
	kindScreenMemo = "screen-memo"
)

// Resume-skip funnel: per-event hit/miss counters for artifact-backed
// campaign shards.
var (
	mFuzzResumeHit = telemetry.C("fuzzer_resume_events_total",
		telemetry.L("outcome", "hit"))
	mFuzzResumeMiss = telemetry.C("fuzzer_resume_events_total",
		telemetry.L("outcome", "miss"))
)

// fpCore mixes the measurement core configuration into a fingerprint.
func fpCore(f *artifact.Fingerprint, c microarch.CoreConfig) {
	f.Int("core.l1d-sets", c.L1DSets).Int("core.l1d-ways", c.L1DWays)
	f.Int("core.l1i-sets", c.L1ISets).Int("core.l1i-ways", c.L1IWays)
	f.Int("core.l2-sets", c.L2Sets).Int("core.l2-ways", c.L2Ways)
	f.Int("core.line", c.LineSize).Int("core.tlb", c.TLBEntries)
	f.Int("core.predictor", c.PredictorEntries)
	f.Float("core.interrupt-rate", c.InterruptRate)
}

// fpEvent mixes an event's identity and formula into a fingerprint.
func fpEvent(f *artifact.Fingerprint, e *hpc.Event) {
	f.Int("event.id", e.ID).String("event.name", e.Name)
	f.Int("event.type", int(e.Type)).Bool("event.guest", e.GuestVisible)
	f.Float("event.noise", e.NoiseSigma).Int("event.terms", len(e.Terms))
	for _, t := range e.Terms {
		f.Int("term.signal", t.Signal).Float("term.weight", t.Weight)
	}
}

// fpVariant mixes one legal instruction variant into a fingerprint; every
// field that shapes execution or clustering participates.
func fpVariant(f *artifact.Fingerprint, v isa.Variant) {
	f.Int("var.id", v.ID).String("var.mnemonic", v.Mnemonic)
	f.String("var.operands", string(v.Operands))
	f.String("var.ext", string(v.Extension)).String("var.cat", string(v.Category))
	f.Int("var.class", int(v.Class)).Int("var.uops", v.Uops)
	f.Int("var.reads", v.MemReads).Int("var.writes", v.MemWrites)
	f.Bool("var.priv", v.Privileged).Bool("var.reserved", v.Reserved)
	f.Bool("var.pf", v.PageFaults)
}

// legalFP hashes the post-cleanup legal instruction list once per Fuzzer.
func (f *Fuzzer) legalFP() string {
	f.resumeOnce.Do(func() {
		fp := artifact.NewFingerprint("legal-list")
		fp.Int("len", len(f.legal))
		byID := make(map[int]isa.Variant, len(f.legal))
		for _, v := range f.legal {
			fpVariant(fp, v)
			byID[v.ID] = v
		}
		f.legalHash = fp.Sum()
		f.byID = byID
	})
	return f.legalHash
}

// variantByID resolves a stable variant ID back to the legal-list entry;
// artifacts store gadgets as ID pairs, never as serialized variants.
func (f *Fuzzer) variantByID(id int) (isa.Variant, bool) {
	f.legalFP()
	v, ok := f.byID[id]
	return v, ok
}

// eventFP addresses one event's findings artifact. Everything the search
// depends on participates: seed, legal list, event formula, campaign
// tunables, core and fault configuration.
func (f *Fuzzer) eventFP(e *hpc.Event) string {
	fp := artifact.NewFingerprint(kindFuzzEvent)
	fp.Uint64("seed", f.cfg.Seed).String("legal", f.legalFP())
	fp.Int("candidates", f.cfg.CandidatesPerEvent).Int("repeats", f.cfg.Repeats)
	fp.Float("lambda1", f.cfg.Lambda1).Float("lambda2", f.cfg.Lambda2)
	fp.Float("min-delta", f.cfg.MinDelta)
	fp.Bool("noise", f.cfg.MeasureNoise).Bool("no-confirm", f.cfg.DisableConfirmation)
	fpCore(fp, f.cfg.Core)
	fc := f.cfg.Faults
	fp.Uint64("faults.seed", fc.Seed)
	fp.Float("faults.read-err", fc.PMUReadErrorRate)
	fp.Float("faults.saturate", fc.CounterSaturationRate)
	fp.Float("faults.cap", fc.SaturationCap)
	fp.Float("faults.preempt", fc.PreemptionRate)
	fp.Int("faults.burst", fc.PreemptionBurstTicks)
	fp.Float("faults.budget", fc.PreemptionBudgetFrac)
	fp.Float("faults.interrupt", fc.GadgetInterruptRate)
	fp.Float("faults.extreme", fc.DrawExtremeRate)
	fp.Float("faults.magnitude", fc.DrawExtremeMagnitude)
	fpEvent(fp, e)
	return fp.Sum()
}

// memoFP addresses the screening memo. Signatures are pure functions of
// (gadget, core config) and measured noise- and fault-free, so only the
// legal list and the core configuration participate — a memo survives
// seed and event-set changes, which is what makes incremental
// re-screening of a grown catalog cheap.
func (f *Fuzzer) memoFP() string {
	fp := artifact.NewFingerprint(kindScreenMemo)
	fp.String("legal", f.legalFP())
	fpCore(fp, f.cfg.Core)
	return fp.Sum()
}

// ArtifactUniverse returns every artifact fingerprint this fuzzer
// configuration would consult for the given target events (pass the full
// catalog to cover any selection), mapped to a human-readable label.
func (f *Fuzzer) ArtifactUniverse(events []*hpc.Event) map[string]string {
	out := make(map[string]string, 1+len(events))
	out[f.memoFP()] = kindScreenMemo
	for _, e := range events {
		if e == nil {
			continue
		}
		out[f.eventFP(e)] = kindFuzzEvent + " " + e.Name
	}
	return out
}

// loadEvent restores one event's confirmed findings and tried count.
func (f *Fuzzer) loadEvent(e *hpc.Event) ([]Finding, int, bool) {
	a, ok := f.cfg.Store.Get(kindFuzzEvent, f.eventFP(e))
	if !ok {
		return nil, 0, false
	}
	tried, err := strconv.Atoi(a.Meta["tried"])
	if err != nil {
		return nil, 0, false
	}
	rows := a.Section("findings")
	if rows == nil || len(rows)%3 != 0 {
		return nil, 0, false
	}
	var findings []Finding
	for off := 0; off < len(rows); off += 3 {
		reset, ok1 := f.variantByID(int(rows[off]))
		trigger, ok2 := f.variantByID(int(rows[off+1]))
		if !ok1 || !ok2 {
			return nil, 0, false // legal list drifted under a stale store
		}
		findings = append(findings, Finding{
			Gadget:      Gadget{Reset: reset, Trigger: trigger},
			Event:       e,
			MedianDelta: rows[off+2],
		})
	}
	return findings, tried, true
}

// storeEvent checkpoints one event's search outcome as dense [reset ID,
// trigger ID, median delta] rows.
func (f *Fuzzer) storeEvent(e *hpc.Event, findings []Finding, tried int) {
	a := artifact.New(kindFuzzEvent, f.eventFP(e))
	a.SetMeta("event", e.Name)
	a.SetMeta("tried", strconv.Itoa(tried))
	rows := make([]float64, 0, 3*len(findings))
	for _, fd := range findings {
		rows = append(rows,
			float64(fd.Gadget.Reset.ID), float64(fd.Gadget.Trigger.ID), fd.MedianDelta)
	}
	a.AddSection("findings", rows)
	f.putArtifact(a)
}

// loadMemo seeds the screening memo from a stored artifact. Preloading
// only ever adds pure values a fresh run would recompute identically.
func (f *Fuzzer) loadMemo() {
	a, ok := f.cfg.Store.Get(kindScreenMemo, f.memoFP())
	if !ok {
		return
	}
	ids := a.Section("ids")
	cold := a.Section("cold")
	warm := a.Section("warm")
	total := a.Section("total")
	n := len(ids) / 2
	sig := microarch.NumSignals
	if len(ids)%2 != 0 || len(cold) != n*sig || len(warm) != n*sig || len(total) != n*sig {
		return // mis-shaped memo: ignore, the campaign rebuilds it
	}
	for i := 0; i < n; i++ {
		id := gadgetID{int(ids[2*i]), int(ids[2*i+1])}
		f.memo.store(id, gadgetSig{
			cold:  cold[i*sig : (i+1)*sig : (i+1)*sig],
			warm:  warm[i*sig : (i+1)*sig : (i+1)*sig],
			total: total[i*sig : (i+1)*sig : (i+1)*sig],
		})
	}
}

// storeMemo checkpoints the screening memo, gadget-ID sorted so the
// artifact bytes are independent of memo insertion order.
func (f *Fuzzer) storeMemo() {
	ids, sigs := f.memo.snapshot()
	a := artifact.New(kindScreenMemo, f.memoFP())
	a.SetMeta("gadgets", strconv.Itoa(len(ids)))
	sig := microarch.NumSignals
	idRows := make([]float64, 0, 2*len(ids))
	cold := make([]float64, 0, len(ids)*sig)
	warm := make([]float64, 0, len(ids)*sig)
	total := make([]float64, 0, len(ids)*sig)
	for i, id := range ids {
		idRows = append(idRows, float64(id[0]), float64(id[1]))
		cold = append(cold, sigs[i].cold...)
		warm = append(warm, sigs[i].warm...)
		total = append(total, sigs[i].total...)
	}
	a.AddSection("ids", idRows)
	a.AddSection("cold", cold)
	a.AddSection("warm", warm)
	a.AddSection("total", total)
	f.putArtifact(a)
}

// snapshot returns the memo's signatures in gadget-ID order.
func (m *screenMemo) snapshot() ([]gadgetID, []gadgetSig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]gadgetID, 0, len(m.sigs))
	for id := range m.sigs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i][0] != ids[j][0] {
			return ids[i][0] < ids[j][0]
		}
		return ids[i][1] < ids[j][1]
	})
	sigs := make([]gadgetSig, len(ids))
	for i, id := range ids {
		sigs[i] = m.sigs[id]
	}
	return ids, sigs
}

// putArtifact writes a checkpoint; a failed write degrades resume, never
// the campaign, so it is logged and dropped.
func (f *Fuzzer) putArtifact(a *artifact.Artifact) {
	if err := f.cfg.Store.Put(a); err != nil {
		telemetry.Log().Warn("fuzzer: artifact checkpoint failed",
			telemetry.F("kind", a.Kind), telemetry.F("error", err.Error()))
	}
}
