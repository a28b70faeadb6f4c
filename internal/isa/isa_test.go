package isa

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestGenerateSpecDeterministic(t *testing.T) {
	a := SpecAMDEpyc(42)
	b := SpecAMDEpyc(42)
	if len(a.Variants) != len(b.Variants) {
		t.Fatalf("variant counts differ: %d vs %d", len(a.Variants), len(b.Variants))
	}
	for i := range a.Variants {
		if a.Variants[i] != b.Variants[i] {
			t.Fatalf("variant %d differs between identical seeds", i)
		}
	}
}

func TestSpecSizes(t *testing.T) {
	intel := SpecIntelXeonE5(1)
	amd := SpecAMDEpyc(1)
	if len(intel.Variants) != IntelTotalVariants {
		t.Errorf("intel spec has %d variants, want %d", len(intel.Variants), IntelTotalVariants)
	}
	if len(amd.Variants) != AMDTotalVariants {
		t.Errorf("amd spec has %d variants, want %d", len(amd.Variants), AMDTotalVariants)
	}
}

func TestCleanupLegalCounts(t *testing.T) {
	intel := Cleanup(SpecIntelXeonE5(1), IntelXeonE5Features())
	amd := Cleanup(SpecAMDEpyc(1), AMDEpycFeatures())

	if got := len(intel.Legal); got != IntelLegalVariants {
		t.Errorf("intel legal = %d, want %d", got, IntelLegalVariants)
	}
	if got := len(amd.Legal); got != AMDLegalVariants {
		t.Errorf("amd legal = %d, want %d", got, AMDLegalVariants)
	}

	// Paper §VI-C: only ~24% of variants are legal.
	for _, tc := range []struct {
		name string
		frac float64
		want float64
	}{
		{"intel", intel.LegalFraction(), 0.2416},
		{"amd", amd.LegalFraction(), 0.2431},
	} {
		if math.Abs(tc.frac-tc.want) > 0.005 {
			t.Errorf("%s legal fraction = %.4f, want ~%.4f", tc.name, tc.frac, tc.want)
		}
	}
}

func TestCleanupUDFaultShare(t *testing.T) {
	// Paper: 98.84% (Intel) and 98.69% (AMD) of cleanup faults are #UD.
	intel := Cleanup(SpecIntelXeonE5(1), IntelXeonE5Features())
	amd := Cleanup(SpecAMDEpyc(1), AMDEpycFeatures())
	for _, tc := range []struct {
		name  string
		share float64
	}{
		{"intel", intel.UDFaultShare()},
		{"amd", amd.UDFaultShare()},
	} {
		if tc.share < 0.97 || tc.share > 0.999 {
			t.Errorf("%s UD fault share = %.4f, want ~0.988", tc.name, tc.share)
		}
	}
}

func TestLegalVariantsExecuteNormally(t *testing.T) {
	feats := AMDEpycFeatures()
	res := Cleanup(SpecAMDEpyc(2), feats)
	for _, v := range res.Legal {
		if f := Probe(v, feats); f != FaultNone {
			t.Fatalf("legal variant %q probes to %v", v.Key(), f)
		}
		if v.Class == ClassInvalid {
			t.Fatalf("legal variant %q has invalid class", v.Key())
		}
	}
}

func TestPrivilegedVariantsFaultGP(t *testing.T) {
	feats := IntelXeonE5Features()
	spec := SpecIntelXeonE5(3)
	found := false
	for _, v := range spec.Variants {
		if v.Privileged && feats.Supports(v.Extension) {
			found = true
			if f := Probe(v, feats); f != FaultGP {
				t.Errorf("privileged %q probes to %v, want #GP", v.Key(), f)
			}
		}
	}
	if !found {
		t.Error("spec contains no privileged variants")
	}
}

func TestUnsupportedExtensionFaultsUD(t *testing.T) {
	// AMD does not implement TSX in this model; Intel does not have CET.
	amd := AMDEpycFeatures()
	v := Variant{Mnemonic: "XBEGIN", Extension: ExtTSX, Class: ClassBranch}
	if f := Probe(v, amd); f != FaultUD {
		t.Errorf("TSX on AMD probes to %v, want #UD", f)
	}
	intel := IntelXeonE5Features()
	v = Variant{Mnemonic: "ENDBR64", Extension: ExtCET, Class: ClassNop}
	if f := Probe(v, intel); f != FaultUD {
		t.Errorf("CET on Intel probes to %v, want #UD", f)
	}
}

func TestSpecContainsKeyGadgetClasses(t *testing.T) {
	// The fuzzer needs flush, prefetch, fence, serialize, load, store and
	// vector classes among *legal* AMD variants to build reset/trigger
	// sequences.
	res := Cleanup(SpecAMDEpyc(4), AMDEpycFeatures())
	have := make(map[Class]bool)
	for _, v := range res.Legal {
		have[v.Class] = true
	}
	for _, c := range []Class{ClassFlush, ClassPrefetch, ClassFence, ClassSerial,
		ClassLoad, ClassStore, ClassBranch, ClassALU, ClassSSE, ClassAVX, ClassX87} {
		if !have[c] {
			t.Errorf("no legal variant of class %v", c)
		}
	}
}

func TestVariantIDsSequential(t *testing.T) {
	spec := SpecAMDEpyc(5)
	for i, v := range spec.Variants {
		if v.ID != i {
			t.Fatalf("variant %d has ID %d", i, v.ID)
		}
	}
}

func TestKeyUniquePerVariantIdentity(t *testing.T) {
	if err := quick.Check(func(a, b uint16) bool {
		spec := SpecAMDEpyc(6)
		va := spec.Variants[int(a)%len(spec.Variants)]
		vb := spec.Variants[int(b)%len(spec.Variants)]
		if va.Mnemonic == vb.Mnemonic && va.Operands == vb.Operands {
			return va.Key() == vb.Key()
		}
		return va.Key() != vb.Key()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMnemonicsCoverFamilies(t *testing.T) {
	spec := SpecAMDEpyc(7)
	ms := Mnemonics(spec.Variants)
	set := make(map[string]bool, len(ms))
	for _, m := range ms {
		set[m] = true
	}
	for _, want := range []string{"ADD", "MOV", "CLFLUSH", "CPUID", "MFENCE",
		"PREFETCHT0", "VADDPS", "FADD", "AESENC", "JMP"} {
		if !set[want] {
			t.Errorf("mnemonic %q missing from spec", want)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	for f, want := range map[FaultKind]string{
		FaultNone: "none", FaultUD: "#UD", FaultGP: "#GP", FaultPF: "#PF",
	} {
		if f.String() != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassFlush.String() != "flush" {
		t.Errorf("ClassFlush.String() = %q", ClassFlush.String())
	}
	if Class(999).String() == "" {
		t.Error("unknown class produced empty string")
	}
}

func TestVendorSpecsDiffer(t *testing.T) {
	intel := SpecIntelXeonE5(8)
	amd := SpecAMDEpyc(8)
	same := 0
	n := 1000
	for i := 0; i < n; i++ {
		if intel.Variants[i].Mnemonic == amd.Variants[i].Mnemonic &&
			intel.Variants[i].Operands == amd.Variants[i].Operands {
			same++
		}
	}
	// The documented prefix is shared; the alias tail must diverge.
	if same == n {
		t.Error("intel and amd specs are identical; vendor streams not split")
	}
}

// LegalFraction returns the share of probed variants that execute normally.
func (c CleanupResult) LegalFraction() float64 {
	if c.TotalProbed == 0 {
		return 0
	}
	return float64(len(c.Legal)) / float64(c.TotalProbed)
}

// UDFaultShare returns the fraction of faults that were illegal-instruction
// faults (#UD); the paper measures ~98.8% on Intel and ~98.7% on AMD.
func (c CleanupResult) UDFaultShare() float64 {
	var total, ud int
	for k, n := range c.FaultCounts {
		if k == FaultNone {
			continue
		}
		total += n
		if k == FaultUD {
			ud += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ud) / float64(total)
}

// Mnemonics returns the sorted set of distinct mnemonics in variants, which
// tests use to sanity-check generator coverage.
func Mnemonics(variants []Variant) []string {
	set := make(map[string]bool, len(variants))
	for _, v := range variants {
		set[v.Mnemonic] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
