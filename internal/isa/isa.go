// Package isa models a machine-readable instruction-set-architecture
// specification in the style of uops.info, which the paper's Event Fuzzer
// consumes (paper §VI-C).
//
// The specification enumerates instruction *variants*: a mnemonic extended
// with an operand form and attributes (ISA extension, general category,
// micro-op composition). Mirroring the paper's measurements, only a small
// portion (~24%) of variants are legal on a given micro-architecture; the
// rest fault, almost always with an undefined-opcode fault. The fuzzer's
// cleanup step executes every variant and keeps the ones that complete
// normally.
package isa

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/repro/aegis/internal/rng"
)

// Canonical specification sizes matching the paper's measurements: ~14k
// variants per vendor of which 3386 (Intel, 24.16%) / 3407 (AMD, 24.31%)
// execute normally after cleanup (paper §VI-C).
const (
	IntelTotalVariants = 14016
	IntelLegalVariants = 3386
	AMDTotalVariants   = 14016
	AMDLegalVariants   = 3407
)

// SpecIntelXeonE5 returns the canonical Intel specification.
func SpecIntelXeonE5(seed uint64) *Spec {
	return GenerateSpec("intel", IntelTotalVariants, IntelLegalVariants, seed)
}

// SpecAMDEpyc returns the canonical AMD specification.
func SpecAMDEpyc(seed uint64) *Spec {
	return GenerateSpec("amd", AMDTotalVariants, AMDLegalVariants, seed)
}

// Class describes the micro-operation behaviour of an instruction variant;
// the micro-architecture simulator dispatches on it.
type Class int

// Micro-op classes. The set covers the behaviours the fuzzer's gadgets need
// to exercise: plain ALU work, memory loads/stores, cache-control
// (flush/prefetch), serialisation, branches, and the vector/FP families
// whose retirement feeds dedicated HPC events.
const (
	ClassALU Class = iota + 1
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassLoadStore
	ClassBranch
	ClassNop
	ClassX87
	ClassSSE
	ClassAVX
	ClassPrefetch
	ClassFlush   // cache-line flush (CLFLUSH analog)
	ClassFence   // memory fence
	ClassSerial  // serialising (CPUID analog)
	ClassBit     // bit manipulation
	ClassString  // string/rep move
	ClassCrypto  // AES-class
	ClassSystem  // privileged; faults in user mode
	ClassIO      // port I/O; faults in user mode
	ClassInvalid // reserved encodings; always #UD
)

var classNames = map[Class]string{
	ClassALU:       "alu",
	ClassMul:       "mul",
	ClassDiv:       "div",
	ClassLoad:      "load",
	ClassStore:     "store",
	ClassLoadStore: "load-store",
	ClassBranch:    "branch",
	ClassNop:       "nop",
	ClassX87:       "x87",
	ClassSSE:       "sse",
	ClassAVX:       "avx",
	ClassPrefetch:  "prefetch",
	ClassFlush:     "flush",
	ClassFence:     "fence",
	ClassSerial:    "serialize",
	ClassBit:       "bit",
	ClassString:    "string",
	ClassCrypto:    "crypto",
	ClassSystem:    "system",
	ClassIO:        "io",
	ClassInvalid:   "invalid",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Extension is the ISA extension an instruction variant belongs to
// (BASE, X87-FPU, SSE, ... as in the uops.info attribute set).
type Extension string

// Extensions present in the synthetic specification.
const (
	ExtBase   Extension = "BASE"
	ExtX87    Extension = "X87-FPU"
	ExtMMX    Extension = "MMX"
	ExtSSE    Extension = "SSE"
	ExtSSE2   Extension = "SSE2"
	ExtSSE4   Extension = "SSE4"
	ExtAVX    Extension = "AVX"
	ExtAVX2   Extension = "AVX2"
	ExtAVX512 Extension = "AVX512"
	ExtBMI    Extension = "BMI"
	ExtAES    Extension = "AES"
	ExtCLFSH  Extension = "CLFSH"
	ExtVMX    Extension = "VMX"
	ExtSGX    Extension = "SGX"
	ExtTSX    Extension = "TSX"
	ExtCET    Extension = "CET"
	ExtUndoc  Extension = "UNDOC"
)

// Category is the general semantic category of a variant (arithmetic,
// logical, ...), used by the fuzzer's gadget-filtering stage (paper §VI-F).
type Category string

// Categories of the synthetic specification.
const (
	CatArithmetic Category = "arithmetic"
	CatLogical    Category = "logical"
	CatDataMove   Category = "data-transfer"
	CatMemory     Category = "memory"
	CatControl    Category = "control-flow"
	CatCompare    Category = "compare"
	CatConvert    Category = "conversion"
	CatCache      Category = "cache-control"
	CatSync       Category = "synchronization"
	CatVector     Category = "vector"
	CatCryptoOp   Category = "crypto"
	CatStringOp   Category = "string"
	CatSystemOp   Category = "system"
)

// OperandForm is a symbolic operand signature such as "R64, M64".
type OperandForm string

// Variant is one entry of the machine-readable ISA specification.
type Variant struct {
	// ID is the stable index of the variant within its specification.
	ID int
	// Mnemonic is the assembly mnemonic, e.g. "ADD".
	Mnemonic string
	// Operands is the operand form of this variant.
	Operands OperandForm
	// Extension is the ISA extension the variant requires.
	Extension Extension
	// Category is the general semantic category.
	Category Category
	// Class drives micro-architectural execution.
	Class Class
	// Uops is the number of micro-ops the variant decodes into.
	Uops int
	// MemReads and MemWrites are the memory operand counts.
	MemReads  int
	MemWrites int
	// Privileged variants fault with #GP outside ring 0.
	Privileged bool
	// Reserved marks undocumented/reserved encodings that always #UD.
	Reserved bool
	// PageFaults marks encodings whose implicit memory access raises #PF.
	PageFaults bool
}

// Key returns the unique "MNEMONIC (operands)" identity of a variant.
func (v Variant) Key() string {
	return v.Mnemonic + " (" + string(v.Operands) + ")"
}

// FaultKind enumerates the outcomes of probing a variant during cleanup.
type FaultKind int

// Probe outcomes.
const (
	FaultNone FaultKind = iota + 1 // executes normally
	FaultUD                        // undefined opcode
	FaultGP                        // general protection (privileged)
	FaultPF                        // page fault (bad implicit access)
)

func (f FaultKind) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultUD:
		return "#UD"
	case FaultGP:
		return "#GP"
	case FaultPF:
		return "#PF"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// Spec is a full machine-readable ISA specification for one vendor.
type Spec struct {
	// Vendor is "intel" or "amd"; the synthetic variant mix differs
	// slightly between them, as uops.info does across vendors.
	Vendor   string
	Variants []Variant
}

// mnemonicTemplate seeds the variant generator: a base mnemonic family with
// its semantic attributes and the operand forms it appears with.
type mnemonicTemplate struct {
	mnemonic  string
	extension Extension
	category  Category
	class     Class
	uops      int
	reads     int
	writes    int
	priv      bool
	forms     []OperandForm
}

// regForms and memory forms shared across families.
var (
	rrForms  = []OperandForm{"R8, R8", "R16, R16", "R32, R32", "R64, R64", "R32, I32", "R64, I32"}
	rmForms  = []OperandForm{"R32, M32", "R64, M64", "R16, M16", "R8, M8"}
	mrForms  = []OperandForm{"M32, R32", "M64, R64", "M16, R16", "M8, R8"}
	vecForms = []OperandForm{"XMM, XMM", "XMM, M128", "YMM, YMM", "YMM, M256"}
)

func baseTemplates() []mnemonicTemplate {
	return []mnemonicTemplate{
		// BASE integer ALU.
		{"ADD", ExtBase, CatArithmetic, ClassALU, 1, 0, 0, false, rrForms},
		{"SUB", ExtBase, CatArithmetic, ClassALU, 1, 0, 0, false, rrForms},
		{"ADC", ExtBase, CatArithmetic, ClassALU, 1, 0, 0, false, rrForms},
		{"SBB", ExtBase, CatArithmetic, ClassALU, 1, 0, 0, false, rrForms},
		{"INC", ExtBase, CatArithmetic, ClassALU, 1, 0, 0, false, []OperandForm{"R8", "R16", "R32", "R64"}},
		{"DEC", ExtBase, CatArithmetic, ClassALU, 1, 0, 0, false, []OperandForm{"R8", "R16", "R32", "R64"}},
		{"NEG", ExtBase, CatArithmetic, ClassALU, 1, 0, 0, false, []OperandForm{"R32", "R64"}},
		{"IMUL", ExtBase, CatArithmetic, ClassMul, 1, 0, 0, false, rrForms},
		{"MUL", ExtBase, CatArithmetic, ClassMul, 2, 0, 0, false, []OperandForm{"R32", "R64"}},
		{"IDIV", ExtBase, CatArithmetic, ClassDiv, 9, 0, 0, false, []OperandForm{"R32", "R64"}},
		{"DIV", ExtBase, CatArithmetic, ClassDiv, 9, 0, 0, false, []OperandForm{"R32", "R64"}},
		{"AND", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, rrForms},
		{"OR", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, rrForms},
		{"XOR", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, rrForms},
		{"NOT", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, []OperandForm{"R32", "R64"}},
		{"SHL", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, []OperandForm{"R32, I8", "R64, I8", "R32, CL", "R64, CL"}},
		{"SHR", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, []OperandForm{"R32, I8", "R64, I8", "R32, CL", "R64, CL"}},
		{"SAR", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, []OperandForm{"R32, I8", "R64, I8"}},
		{"ROL", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, []OperandForm{"R32, I8", "R64, I8"}},
		{"ROR", ExtBase, CatLogical, ClassALU, 1, 0, 0, false, []OperandForm{"R32, I8", "R64, I8"}},
		{"CMP", ExtBase, CatCompare, ClassALU, 1, 0, 0, false, rrForms},
		{"TEST", ExtBase, CatCompare, ClassALU, 1, 0, 0, false, rrForms},
		{"SETZ", ExtBase, CatCompare, ClassALU, 1, 0, 0, false, []OperandForm{"R8"}},
		{"CMOVZ", ExtBase, CatDataMove, ClassALU, 1, 0, 0, false, []OperandForm{"R32, R32", "R64, R64"}},
		// Loads / stores.
		{"MOV", ExtBase, CatDataMove, ClassLoad, 1, 1, 0, false, rmForms},
		{"MOVST", ExtBase, CatDataMove, ClassStore, 1, 0, 1, false, mrForms},
		{"MOVZX", ExtBase, CatDataMove, ClassLoad, 1, 1, 0, false, []OperandForm{"R32, M8", "R64, M16"}},
		{"MOVSX", ExtBase, CatDataMove, ClassLoad, 1, 1, 0, false, []OperandForm{"R32, M8", "R64, M16"}},
		{"LEA", ExtBase, CatDataMove, ClassALU, 1, 0, 0, false, []OperandForm{"R32, M", "R64, M"}},
		{"PUSH", ExtBase, CatMemory, ClassStore, 1, 0, 1, false, []OperandForm{"R64", "I32"}},
		{"POP", ExtBase, CatMemory, ClassLoad, 1, 1, 0, false, []OperandForm{"R64"}},
		{"XCHG", ExtBase, CatMemory, ClassLoadStore, 2, 1, 1, false, []OperandForm{"M32, R32", "M64, R64"}},
		{"XADD", ExtBase, CatMemory, ClassLoadStore, 3, 1, 1, false, []OperandForm{"M32, R32", "M64, R64"}},
		{"CMPXCHG", ExtBase, CatSync, ClassLoadStore, 4, 1, 1, false, []OperandForm{"M32, R32", "M64, R64"}},
		// Branches.
		{"JMP", ExtBase, CatControl, ClassBranch, 1, 0, 0, false, []OperandForm{"REL8", "REL32", "R64"}},
		{"JZ", ExtBase, CatControl, ClassBranch, 1, 0, 0, false, []OperandForm{"REL8", "REL32"}},
		{"JNZ", ExtBase, CatControl, ClassBranch, 1, 0, 0, false, []OperandForm{"REL8", "REL32"}},
		{"JC", ExtBase, CatControl, ClassBranch, 1, 0, 0, false, []OperandForm{"REL8", "REL32"}},
		{"CALL", ExtBase, CatControl, ClassBranch, 2, 0, 1, false, []OperandForm{"REL32"}},
		{"RET", ExtBase, CatControl, ClassBranch, 2, 1, 0, false, []OperandForm{""}},
		{"LOOP", ExtBase, CatControl, ClassBranch, 2, 0, 0, false, []OperandForm{"REL8"}},
		// Nop family.
		{"NOP", ExtBase, CatDataMove, ClassNop, 1, 0, 0, false, []OperandForm{"", "R32", "M32"}},
		{"PAUSE", ExtBase, CatSync, ClassNop, 1, 0, 0, false, []OperandForm{""}},
		// Bit manipulation.
		{"POPCNT", ExtBMI, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R32, R32", "R64, R64"}},
		{"LZCNT", ExtBMI, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R32, R32", "R64, R64"}},
		{"TZCNT", ExtBMI, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R32, R32", "R64, R64"}},
		{"BSF", ExtBase, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R32, R32", "R64, R64"}},
		{"BSR", ExtBase, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R32, R32", "R64, R64"}},
		{"ANDN", ExtBMI, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R32, R32, R32", "R64, R64, R64"}},
		{"PDEP", ExtBMI, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R64, R64, R64"}},
		{"PEXT", ExtBMI, CatLogical, ClassBit, 1, 0, 0, false, []OperandForm{"R64, R64, R64"}},
		// String ops.
		{"MOVSB", ExtBase, CatStringOp, ClassString, 2, 1, 1, false, []OperandForm{""}},
		{"STOSB", ExtBase, CatStringOp, ClassString, 2, 0, 1, false, []OperandForm{""}},
		{"LODSB", ExtBase, CatStringOp, ClassString, 2, 1, 0, false, []OperandForm{""}},
		{"CMPSB", ExtBase, CatStringOp, ClassString, 2, 2, 0, false, []OperandForm{""}},
		// x87 FPU.
		{"FADD", ExtX87, CatArithmetic, ClassX87, 1, 0, 0, false, []OperandForm{"ST0, ST1", "M32FP", "M64FP"}},
		{"FSUB", ExtX87, CatArithmetic, ClassX87, 1, 0, 0, false, []OperandForm{"ST0, ST1", "M32FP", "M64FP"}},
		{"FMUL", ExtX87, CatArithmetic, ClassX87, 1, 0, 0, false, []OperandForm{"ST0, ST1", "M32FP", "M64FP"}},
		{"FDIV", ExtX87, CatArithmetic, ClassX87, 4, 0, 0, false, []OperandForm{"ST0, ST1", "M32FP"}},
		{"FLD", ExtX87, CatDataMove, ClassX87, 1, 1, 0, false, []OperandForm{"M32FP", "M64FP"}},
		{"FST", ExtX87, CatDataMove, ClassX87, 1, 0, 1, false, []OperandForm{"M32FP", "M64FP"}},
		{"FSQRT", ExtX87, CatArithmetic, ClassX87, 8, 0, 0, false, []OperandForm{""}},
		{"FSIN", ExtX87, CatArithmetic, ClassX87, 40, 0, 0, false, []OperandForm{""}},
		// MMX.
		{"PADDB", ExtMMX, CatVector, ClassSSE, 1, 0, 0, false, []OperandForm{"MM, MM", "MM, M64"}},
		{"PSUBB", ExtMMX, CatVector, ClassSSE, 1, 0, 0, false, []OperandForm{"MM, MM", "MM, M64"}},
		{"PMULLW", ExtMMX, CatVector, ClassSSE, 1, 0, 0, false, []OperandForm{"MM, MM"}},
		{"EMMS", ExtMMX, CatSystemOp, ClassSSE, 1, 0, 0, false, []OperandForm{""}},
		// SSE families.
		{"ADDPS", ExtSSE, CatVector, ClassSSE, 1, 0, 0, false, vecForms[:2]},
		{"MULPS", ExtSSE, CatVector, ClassSSE, 1, 0, 0, false, vecForms[:2]},
		{"DIVPS", ExtSSE, CatVector, ClassSSE, 6, 0, 0, false, vecForms[:2]},
		{"SQRTPS", ExtSSE, CatVector, ClassSSE, 6, 0, 0, false, vecForms[:2]},
		{"ADDPD", ExtSSE2, CatVector, ClassSSE, 1, 0, 0, false, vecForms[:2]},
		{"MULPD", ExtSSE2, CatVector, ClassSSE, 1, 0, 0, false, vecForms[:2]},
		{"MOVAPS", ExtSSE, CatDataMove, ClassSSE, 1, 1, 0, false, []OperandForm{"XMM, M128"}},
		{"MOVAPSST", ExtSSE, CatDataMove, ClassSSE, 1, 0, 1, false, []OperandForm{"M128, XMM"}},
		{"MOVNTPS", ExtSSE, CatMemory, ClassStore, 1, 0, 1, false, []OperandForm{"M128, XMM"}},
		{"PSHUFB", ExtSSE4, CatVector, ClassSSE, 1, 0, 0, false, []OperandForm{"XMM, XMM"}},
		{"PTEST", ExtSSE4, CatCompare, ClassSSE, 1, 0, 0, false, []OperandForm{"XMM, XMM"}},
		{"CVTSI2SS", ExtSSE, CatConvert, ClassSSE, 2, 0, 0, false, []OperandForm{"XMM, R32", "XMM, R64"}},
		{"CVTSS2SI", ExtSSE, CatConvert, ClassSSE, 2, 0, 0, false, []OperandForm{"R32, XMM", "R64, XMM"}},
		// AVX.
		{"VADDPS", ExtAVX, CatVector, ClassAVX, 1, 0, 0, false, vecForms},
		{"VMULPS", ExtAVX, CatVector, ClassAVX, 1, 0, 0, false, vecForms},
		{"VFMADD231PS", ExtAVX2, CatVector, ClassAVX, 1, 0, 0, false, []OperandForm{"YMM, YMM, YMM"}},
		{"VPAND", ExtAVX2, CatVector, ClassAVX, 1, 0, 0, false, []OperandForm{"YMM, YMM, YMM"}},
		{"VMOVDQA", ExtAVX, CatDataMove, ClassAVX, 1, 1, 0, false, []OperandForm{"YMM, M256"}},
		{"VMOVDQAST", ExtAVX, CatDataMove, ClassAVX, 1, 0, 1, false, []OperandForm{"M256, YMM"}},
		{"VZEROUPPER", ExtAVX, CatSystemOp, ClassAVX, 1, 0, 0, false, []OperandForm{""}},
		{"VPADDD512", ExtAVX512, CatVector, ClassAVX, 1, 0, 0, false, []OperandForm{"ZMM, ZMM, ZMM", "ZMM, M512"}},
		{"VPERMW512", ExtAVX512, CatVector, ClassAVX, 2, 0, 0, false, []OperandForm{"ZMM, ZMM, ZMM"}},
		// Crypto.
		{"AESENC", ExtAES, CatCryptoOp, ClassCrypto, 1, 0, 0, false, []OperandForm{"XMM, XMM"}},
		{"AESDEC", ExtAES, CatCryptoOp, ClassCrypto, 1, 0, 0, false, []OperandForm{"XMM, XMM"}},
		{"PCLMULQDQ", ExtAES, CatCryptoOp, ClassCrypto, 1, 0, 0, false, []OperandForm{"XMM, XMM, I8"}},
		// Cache control.
		{"CLFLUSH", ExtCLFSH, CatCache, ClassFlush, 2, 0, 0, false, []OperandForm{"M8"}},
		{"CLFLUSHOPT", ExtCLFSH, CatCache, ClassFlush, 2, 0, 0, false, []OperandForm{"M8"}},
		{"CLWB", ExtCLFSH, CatCache, ClassFlush, 2, 0, 0, false, []OperandForm{"M8"}},
		{"PREFETCHT0", ExtSSE, CatCache, ClassPrefetch, 1, 0, 0, false, []OperandForm{"M8"}},
		{"PREFETCHT1", ExtSSE, CatCache, ClassPrefetch, 1, 0, 0, false, []OperandForm{"M8"}},
		{"PREFETCHNTA", ExtSSE, CatCache, ClassPrefetch, 1, 0, 0, false, []OperandForm{"M8"}},
		// Fences / serialisation.
		{"MFENCE", ExtSSE2, CatSync, ClassFence, 1, 0, 0, false, []OperandForm{""}},
		{"LFENCE", ExtSSE2, CatSync, ClassFence, 1, 0, 0, false, []OperandForm{""}},
		{"SFENCE", ExtSSE, CatSync, ClassFence, 1, 0, 0, false, []OperandForm{""}},
		{"CPUID", ExtBase, CatSystemOp, ClassSerial, 20, 0, 0, false, []OperandForm{""}},
		{"RDTSC", ExtBase, CatSystemOp, ClassSerial, 15, 0, 0, false, []OperandForm{""}},
		{"RDTSCP", ExtBase, CatSystemOp, ClassSerial, 20, 0, 0, false, []OperandForm{""}},
		{"XGETBV", ExtBase, CatSystemOp, ClassSerial, 8, 0, 0, false, []OperandForm{""}},
		// Privileged (fault in user mode, removed at cleanup).
		{"RDMSR", ExtBase, CatSystemOp, ClassSystem, 30, 0, 0, true, []OperandForm{""}},
		{"WRMSR", ExtBase, CatSystemOp, ClassSystem, 30, 0, 0, true, []OperandForm{""}},
		{"INVLPG", ExtBase, CatSystemOp, ClassSystem, 20, 0, 0, true, []OperandForm{"M8"}},
		{"WBINVD", ExtBase, CatCache, ClassSystem, 100, 0, 0, true, []OperandForm{""}},
		{"HLT", ExtBase, CatSystemOp, ClassSystem, 1, 0, 0, true, []OperandForm{""}},
		{"IN", ExtBase, CatSystemOp, ClassIO, 10, 0, 0, true, []OperandForm{"AL, I8", "EAX, DX"}},
		{"OUT", ExtBase, CatSystemOp, ClassIO, 10, 0, 0, true, []OperandForm{"I8, AL", "DX, EAX"}},
		{"VMLAUNCH", ExtVMX, CatSystemOp, ClassSystem, 200, 0, 0, true, []OperandForm{""}},
		{"VMRESUME", ExtVMX, CatSystemOp, ClassSystem, 200, 0, 0, true, []OperandForm{""}},
		{"ENCLS", ExtSGX, CatSystemOp, ClassSystem, 200, 0, 0, true, []OperandForm{""}},
		{"XBEGIN", ExtTSX, CatSync, ClassBranch, 5, 0, 0, false, []OperandForm{"REL32"}},
		{"XEND", ExtTSX, CatSync, ClassFence, 5, 0, 0, false, []OperandForm{""}},
		{"ENDBR64", ExtCET, CatControl, ClassNop, 1, 0, 0, false, []OperandForm{""}},
	}
}

// GenerateSpec builds the synthetic machine-readable specification for a
// vendor. The generator expands every mnemonic template into its operand
// forms, pads the list with vendor-specific encoding aliases until exactly
// targetLegal variants execute normally on the vendor's reference
// micro-architecture, and fills the remainder with reserved/undocumented
// encodings so the total variant count and the legal fraction match the
// paper's measurements (~14k variants, ~24% legal after cleanup).
func GenerateSpec(vendor string, totalVariants, targetLegal int, seed uint64) *Spec {
	r := rng.New(seed).Split("isa/" + vendor)
	templates := baseTemplates()
	features := referenceFeatures(vendor)

	var variants []Variant
	addVariant := func(v Variant) {
		v.ID = len(variants)
		variants = append(variants, v)
	}

	// 1. Documented variants from templates, with width/addressing aliases
	// so each family contributes a realistic number of encodings.
	for _, t := range templates {
		for _, form := range t.forms {
			addVariant(Variant{
				Mnemonic:   t.mnemonic,
				Operands:   form,
				Extension:  t.extension,
				Category:   t.category,
				Class:      t.class,
				Uops:       t.uops,
				MemReads:   t.reads,
				MemWrites:  t.writes,
				Privileged: t.priv,
			})
			// Locked / rep / suffix aliases for a subset of forms.
			if t.class == ClassLoadStore || t.class == ClassStore {
				addVariant(Variant{
					Mnemonic:   "LOCK " + t.mnemonic,
					Operands:   form,
					Extension:  t.extension,
					Category:   CatSync,
					Class:      t.class,
					Uops:       t.uops + 2,
					MemReads:   t.reads,
					MemWrites:  t.writes,
					Privileged: t.priv,
				})
			}
			if t.class == ClassString {
				addVariant(Variant{
					Mnemonic:  "REP " + t.mnemonic,
					Operands:  form,
					Extension: t.extension,
					Category:  t.category,
					Class:     t.class,
					Uops:      t.uops * 8,
					MemReads:  t.reads * 8,
					MemWrites: t.writes * 8,
				})
			}
		}
	}

	documented := len(variants)
	legal := 0
	for _, v := range variants {
		if Probe(v, features) == FaultNone {
			legal++
		}
	}

	// 2. Vendor-specific documented aliases: encoding variants that differ
	// only in prefix/width, drawn from legal documented bases. Padding
	// continues until exactly targetLegal variants execute normally on the
	// vendor's reference micro-architecture.
	suffixes := []string{".W", ".L", ".Q", ".B", ".X", ".S", ".D", ".T"}
	aliasRound := 0
	for legal < targetLegal && len(variants) < totalVariants {
		base := variants[r.Intn(documented)]
		if Probe(base, features) != FaultNone {
			continue
		}
		aliasRound++
		suffix := suffixes[r.Intn(len(suffixes))] + strconv.Itoa(aliasRound)
		addVariant(Variant{
			Mnemonic:  base.Mnemonic + suffix,
			Operands:  base.Operands,
			Extension: base.Extension,
			Category:  base.Category,
			Class:     base.Class,
			Uops:      base.Uops,
			MemReads:  base.MemReads,
			MemWrites: base.MemWrites,
		})
		legal++
	}

	// 3. Reserved / undocumented encodings: the bulk of the specification.
	// Nearly all fault with #UD, matching the paper's observation that
	// ~98.8% of cleanup faults are illegal-instruction faults; a small
	// share are system-reserved encodings that raise #GP or #PF instead.
	opByte := 0
	for len(variants) < totalVariants {
		opByte++
		v := Variant{
			Mnemonic:  fmt.Sprintf("DB 0x0F,0x%02X,0x%02X", opByte%251, (opByte*7)%256),
			Operands:  "",
			Extension: ExtUndoc,
			Category:  CatSystemOp,
			Class:     ClassInvalid,
			Reserved:  true,
		}
		switch {
		case opByte%97 == 0:
			// System-reserved encoding: decodes but faults #GP in user mode.
			v.Mnemonic = fmt.Sprintf("SYSRSV%d", opByte)
			v.Extension = ExtBase
			v.Class = ClassSystem
			v.Privileged = true
			v.Reserved = false
			v.Uops = 1
		case opByte%311 == 0:
			// Encoding with a bad implicit memory access: raises #PF.
			v.Mnemonic = fmt.Sprintf("BADMEM%d", opByte)
			v.Extension = ExtBase
			v.Class = ClassInvalid
			v.Reserved = false
			v.PageFaults = true
			v.Uops = 1
		}
		addVariant(v)
	}

	return &Spec{Vendor: vendor, Variants: variants}
}

// referenceFeatures returns the feature set of the vendor's reference
// micro-architecture used to calibrate the legal-variant count.
func referenceFeatures(vendor string) CPUFeatures {
	if strings.HasPrefix(strings.ToLower(vendor), "intel") {
		return IntelXeonE5Features()
	}
	return AMDEpycFeatures()
}

// CPUFeatures describes the extension support of a micro-architecture; the
// cleanup step probes variants against it.
type CPUFeatures struct {
	Name       string
	Extensions map[Extension]bool
}

// Supports reports whether the micro-architecture implements ext.
func (f CPUFeatures) Supports(ext Extension) bool {
	return f.Extensions[ext]
}

// IntelXeonE5Features models the Intel Xeon E5-1650 testbed processor.
func IntelXeonE5Features() CPUFeatures {
	return CPUFeatures{
		Name: "Intel Xeon E5-1650",
		Extensions: map[Extension]bool{
			ExtBase: true, ExtX87: true, ExtMMX: true, ExtSSE: true,
			ExtSSE2: true, ExtSSE4: true, ExtAVX: true, ExtAVX2: true,
			ExtBMI: true, ExtAES: true, ExtCLFSH: true, ExtTSX: true,
		},
	}
}

// AMDEpycFeatures models the AMD EPYC 7252 testbed processor.
func AMDEpycFeatures() CPUFeatures {
	return CPUFeatures{
		Name: "AMD EPYC 7252",
		Extensions: map[Extension]bool{
			ExtBase: true, ExtX87: true, ExtMMX: true, ExtSSE: true,
			ExtSSE2: true, ExtSSE4: true, ExtAVX: true, ExtAVX2: true,
			ExtBMI: true, ExtAES: true, ExtCLFSH: true, ExtCET: true,
		},
	}
}

// Probe reports the fault behaviour of a variant on a micro-architecture in
// user mode, reproducing the cleanup test of paper §VI-C.
func Probe(v Variant, features CPUFeatures) FaultKind {
	switch {
	case v.Reserved:
		return FaultUD
	case !features.Supports(v.Extension):
		return FaultUD
	case v.PageFaults:
		return FaultPF
	case v.Privileged:
		return FaultGP
	case v.Class == ClassIO:
		return FaultGP
	default:
		return FaultNone
	}
}

// CleanupResult summarises an instruction-cleanup run.
type CleanupResult struct {
	Legal       []Variant
	TotalProbed int
	FaultCounts map[FaultKind]int
}

// Cleanup probes every variant of the specification against the
// micro-architecture and returns the legal subset plus fault statistics.
func Cleanup(spec *Spec, features CPUFeatures) CleanupResult {
	res := CleanupResult{
		TotalProbed: len(spec.Variants),
		FaultCounts: make(map[FaultKind]int),
	}
	for _, v := range spec.Variants {
		f := Probe(v, features)
		res.FaultCounts[f]++
		if f == FaultNone {
			res.Legal = append(res.Legal, v)
		}
	}
	return res
}
