package artifact

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
)

// Fingerprint accumulates a 64-bit FNV-1a hash over labeled input fields.
// Every field is framed as label\0value\0, so adjacent fields can never
// alias ("ab"+"c" vs "a"+"bc") and a zero value still advances the hash.
// The rendered sum is the artifact's content address: any producing-input
// change — seed, config field, event formula, legal-instruction list —
// yields a different file name, which is the store's only invalidation
// rule.
type Fingerprint struct {
	h uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewFingerprint starts a fingerprint seeded with a domain label (the
// artifact kind, conventionally), so equal field sets under different
// kinds cannot collide.
func NewFingerprint(domain string) *Fingerprint {
	f := &Fingerprint{h: fnvOffset}
	f.writeString(domain)
	return f
}

func (f *Fingerprint) writeByte(b byte) {
	f.h = (f.h ^ uint64(b)) * fnvPrime
}

func (f *Fingerprint) writeString(s string) {
	for i := 0; i < len(s); i++ {
		f.writeByte(s[i])
	}
	f.writeByte(0)
}

func (f *Fingerprint) writeUint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	for _, x := range b {
		f.writeByte(x)
	}
	f.writeByte(0)
}

// String mixes in a labeled string field.
func (f *Fingerprint) String(label, v string) *Fingerprint {
	f.writeString(label)
	f.writeString(v)
	return f
}

// Uint64 mixes in a labeled uint64 field.
func (f *Fingerprint) Uint64(label string, v uint64) *Fingerprint {
	f.writeString(label)
	f.writeUint64(v)
	return f
}

// Int mixes in a labeled int field.
func (f *Fingerprint) Int(label string, v int) *Fingerprint {
	return f.Uint64(label, uint64(int64(v)))
}

// Float mixes in a labeled float64 field by bit pattern.
func (f *Fingerprint) Float(label string, v float64) *Fingerprint {
	return f.Uint64(label, math.Float64bits(v))
}

// Bool mixes in a labeled bool field.
func (f *Fingerprint) Bool(label string, v bool) *Fingerprint {
	var b uint64
	if v {
		b = 1
	}
	return f.Uint64(label, b)
}

// Sum renders the accumulated hash as the canonical 16-hex-digit content
// address.
func (f *Fingerprint) Sum() string {
	return fmt.Sprintf("%016x", f.h)
}

// Core mixes a simulated core configuration into the fingerprint: every
// field that shapes a measurement participates.
func (f *Fingerprint) Core(c microarch.CoreConfig) *Fingerprint {
	f.Int("core.l1d-sets", c.L1DSets).Int("core.l1d-ways", c.L1DWays)
	f.Int("core.l1i-sets", c.L1ISets).Int("core.l1i-ways", c.L1IWays)
	f.Int("core.l2-sets", c.L2Sets).Int("core.l2-ways", c.L2Ways)
	f.Int("core.line", c.LineSize).Int("core.tlb", c.TLBEntries)
	f.Int("core.predictor", c.PredictorEntries)
	return f.Float("core.interrupt-rate", c.InterruptRate)
}

// Event mixes an HPC event's identity and derivation formula into the
// fingerprint; the formula (terms) is what measurement and scoring
// evaluate, so a catalog delta that redefines an event changes the sum.
func (f *Fingerprint) Event(e *hpc.Event) *Fingerprint {
	f.Int("event.id", e.ID).String("event.name", e.Name)
	f.Int("event.type", int(e.Type)).Bool("event.guest", e.GuestVisible)
	f.Float("event.noise", e.NoiseSigma).Int("event.terms", len(e.Terms))
	for _, t := range e.Terms {
		f.Int("term.signal", t.Signal).Float("term.weight", t.Weight)
	}
	return f
}
