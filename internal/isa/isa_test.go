package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestUopSize pins Uop's packed layout: widest fields first, 24 bytes
// (DESIGN.md §7, "24-byte uops"). Every memoized trace, fetch-queue slot and
// ROB entry holds one, so a field added or reordered carelessly grows all
// of them.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(Uop{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Uop{}) = %d, want 24", got)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Int: "int", IntMul: "imul", Fp: "fp", Load: "load",
		Store: "store", Branch: "branch", Copy: "copy", Nop: "nop",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := Class(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown class string %q should mention the value", got)
	}
}

func TestClassValid(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		if !c.Valid() {
			t.Errorf("class %v should be valid", c)
		}
	}
	if Class(NumClasses).Valid() {
		t.Error("class beyond NumClasses should be invalid")
	}
}

func TestRegKindString(t *testing.T) {
	if IntReg.String() != "int" || FpReg.String() != "fp" {
		t.Errorf("unexpected kind names %q %q", IntReg, FpReg)
	}
}

func TestKindOf(t *testing.T) {
	for r := int16(0); r < NumIntRegs; r++ {
		if KindOf(r) != IntReg {
			t.Errorf("KindOf(%d) = %v, want IntReg", r, KindOf(r))
		}
	}
	for r := int16(NumIntRegs); r < NumLogicalRegs; r++ {
		if KindOf(r) != FpReg {
			t.Errorf("KindOf(%d) = %v, want FpReg", r, KindOf(r))
		}
	}
}

func TestKindOfPanics(t *testing.T) {
	for _, r := range []int16{RegNone, -5, NumLogicalRegs, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KindOf(%d) should panic", r)
				}
			}()
			KindOf(r)
		}()
	}
}

func TestFirstRegAndCount(t *testing.T) {
	if FirstReg(IntReg) != 0 || FirstReg(FpReg) != NumIntRegs {
		t.Error("FirstReg inconsistent with register layout")
	}
	if RegCount(IntReg) != NumIntRegs || RegCount(FpReg) != NumFpRegs {
		t.Error("RegCount inconsistent with register layout")
	}
	// Property: every register of a kind maps back to that kind.
	for _, k := range []RegKind{IntReg, FpReg} {
		for i := 0; i < RegCount(k); i++ {
			if KindOf(FirstReg(k)+int16(i)) != k {
				t.Fatalf("register %d of kind %v maps to %v", i, k, KindOf(FirstReg(k)+int16(i)))
			}
		}
	}
}

func TestLatencyPositive(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		if Latency(c) < 1 {
			t.Errorf("Latency(%v) = %d, want >= 1", c, Latency(c))
		}
	}
	if Latency(IntMul) <= Latency(Int) {
		t.Error("integer multiply should be slower than simple int")
	}
	if Latency(Fp) <= Latency(Int) {
		t.Error("fp should be slower than simple int")
	}
}

func TestDestKind(t *testing.T) {
	if DestKind(Fp) != FpReg {
		t.Error("Fp writes the FP file")
	}
	if DestKind(Int) != IntReg || DestKind(IntMul) != IntReg {
		t.Error("integer classes write the integer file")
	}
}

func TestUopHelpers(t *testing.T) {
	u := Uop{Class: Load, Src1: 3, Src2: RegNone, Dst: 17, Addr: 0x40}
	if !u.HasDest() || !u.IsMem() || u.NumSources() != 1 {
		t.Errorf("load helpers wrong: %+v", u)
	}
	b := Uop{Class: Branch, Src1: 1, Src2: RegNone, Dst: RegNone, Taken: true}
	if b.HasDest() || b.IsMem() || b.NumSources() != 1 {
		t.Errorf("branch helpers wrong: %+v", b)
	}
	n := Uop{Class: Nop, Src1: RegNone, Src2: RegNone, Dst: RegNone}
	if n.NumSources() != 0 || n.HasDest() {
		t.Errorf("nop helpers wrong: %+v", n)
	}
}

func TestUopStringMentionsFields(t *testing.T) {
	u := Uop{Class: Store, Src1: 2, Src2: 19, Dst: RegNone, Addr: 0xbeef}
	s := u.String()
	for _, want := range []string{"store", "s1=r2", "s2=r19", "addr=0xbeef"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: NumSources is always consistent with the operand fields.
func TestNumSourcesProperty(t *testing.T) {
	f := func(s1, s2 int16) bool {
		u := Uop{Src1: s1, Src2: s2}
		want := 0
		if s1 != RegNone {
			want++
		}
		if s2 != RegNone {
			want++
		}
		return u.NumSources() == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
