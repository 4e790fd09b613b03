// Package isa defines the micro-operation (uop) vocabulary shared by the
// trace generator and the processor model: instruction classes, logical
// register identifiers, register kinds and default execution latencies.
//
// The machine is an x86-like design whose front-end cracks macro-instructions
// into uops (paper §3); everything past the trace cache operates on uops, so
// the simulator's ISA is the uop ISA defined here.
package isa

import "fmt"

// Class identifies the execution class of a uop. The class determines which
// issue ports can execute it (see package cluster) and which register file
// kind its destination lives in.
type Class uint8

const (
	// Int is a single-cycle integer ALU operation.
	Int Class = iota
	// IntMul is a multi-cycle integer operation (multiply/divide).
	IntMul
	// Fp is a floating-point or SIMD arithmetic operation.
	Fp
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch is a conditional or indirect control transfer.
	Branch
	// Copy is an inter-cluster register copy generated on demand by the
	// rename logic; it never appears in traces.
	Copy
	// Nop allocates a ROB slot but no back-end resources (used for
	// padding and testing).
	Nop

	// NumClasses is the number of distinct uop classes.
	NumClasses = int(Nop) + 1
)

// String returns the mnemonic for the class.
func (c Class) String() string {
	switch c {
	case Int:
		return "int"
	case IntMul:
		return "imul"
	case Fp:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Copy:
		return "copy"
	case Nop:
		return "nop"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return int(c) < NumClasses }

// RegKind distinguishes the two physical register files implemented per
// cluster (paper §3: one integer file and one FP/SIMD file).
type RegKind uint8

const (
	// IntReg is the integer register kind.
	IntReg RegKind = iota
	// FpReg is the FP/SIMD register kind.
	FpReg
	// NumRegKinds is the number of register kinds.
	NumRegKinds = int(FpReg) + 1
)

// String returns the name of the register kind.
func (k RegKind) String() string {
	if k == IntReg {
		return "int"
	}
	return "fp"
}

// Logical register space. The generator uses an x86-64-like namespace:
// 16 integer registers and 16 FP/SIMD registers. Register numbers are
// encoded in a single int16 space: [0,NumIntRegs) are integer,
// [NumIntRegs, NumIntRegs+NumFpRegs) are FP/SIMD. RegNone marks an absent
// operand.
const (
	// NumIntRegs is the number of logical integer registers.
	NumIntRegs = 16
	// NumFpRegs is the number of logical FP/SIMD registers.
	NumFpRegs = 16
	// NumLogicalRegs is the total logical register count.
	NumLogicalRegs = NumIntRegs + NumFpRegs
	// RegNone marks an absent source or destination operand.
	RegNone int16 = -1
)

// KindOf returns the register kind of logical register r.
// It panics if r is RegNone or out of range.
//
//smtlint:noalloc
func KindOf(r int16) RegKind {
	if r < 0 || int(r) >= NumLogicalRegs {
		panic(fmt.Sprintf("isa: KindOf(%d) out of range", r))
	}
	if r < NumIntRegs {
		return IntReg
	}
	return FpReg
}

// FirstReg returns the first logical register number of kind k.
//
//smtlint:noalloc
func FirstReg(k RegKind) int16 {
	if k == IntReg {
		return 0
	}
	return NumIntRegs
}

// RegCount returns the number of logical registers of kind k.
//
//smtlint:noalloc
func RegCount(k RegKind) int {
	if k == IntReg {
		return NumIntRegs
	}
	return NumFpRegs
}

// DestKind returns the register-file kind a uop of class c writes.
// Loads may write either kind; the trace records the actual destination, so
// DestKind is derived from the destination register when one exists. For
// classes with a fixed kind this returns that kind.
//
//smtlint:noalloc
func DestKind(c Class) RegKind {
	switch c {
	case Fp:
		return FpReg
	default:
		return IntReg
	}
}

// Latency returns the default execution latency, in cycles, of class c.
// Loads return the address-generation latency only; memory access time is
// added by the cache model. These follow the Table 1 machine (1-cycle L1).
//
//smtlint:noalloc
func Latency(c Class) int {
	switch c {
	case Int:
		return 1
	case IntMul:
		return 3
	case Fp:
		return 4
	case Load:
		return 1 // AGU; cache latency added at execute
	case Store:
		return 1 // address + data capture
	case Branch:
		return 1
	case Copy:
		return 1 // link transfer latency modelled by interconnect
	case Nop:
		return 1
	default:
		return 1
	}
}

// Uop is one micro-operation as it appears in a trace or in flight.
// The zero value is a Nop with no operands. The fields are ordered widest
// first so a Uop packs into 24 bytes (DESIGN.md §7).
type Uop struct {
	// PC is the synthetic program counter of the parent instruction.
	PC uint64
	// Addr is the effective address for Load/Store uops.
	Addr uint64
	// Src1, Src2 are logical source registers, RegNone if absent.
	Src1, Src2 int16
	// Dst is the logical destination register, RegNone if absent.
	Dst int16
	// Class is the execution class.
	Class Class
	// Taken is the architectural outcome for Branch uops.
	Taken bool
}

// HasDest reports whether the uop writes a logical register.
//
//smtlint:noalloc
func (u *Uop) HasDest() bool { return u.Dst != RegNone }

// IsMem reports whether the uop accesses memory.
//
//smtlint:noalloc
func (u *Uop) IsMem() bool { return u.Class == Load || u.Class == Store }

// NumSources returns the number of present source operands (0..2).
//
//smtlint:noalloc
func (u *Uop) NumSources() int {
	n := 0
	if u.Src1 != RegNone {
		n++
	}
	if u.Src2 != RegNone {
		n++
	}
	return n
}

// String formats the uop for debugging output.
func (u *Uop) String() string {
	s := fmt.Sprintf("%s pc=%#x", u.Class, u.PC)
	if u.Src1 != RegNone {
		s += fmt.Sprintf(" s1=r%d", u.Src1)
	}
	if u.Src2 != RegNone {
		s += fmt.Sprintf(" s2=r%d", u.Src2)
	}
	if u.Dst != RegNone {
		s += fmt.Sprintf(" d=r%d", u.Dst)
	}
	if u.IsMem() {
		s += fmt.Sprintf(" addr=%#x", u.Addr)
	}
	if u.Class == Branch {
		s += fmt.Sprintf(" taken=%v", u.Taken)
	}
	return s
}
