package trace

import (
	"math"
	"testing"

	"clustersmt/internal/isa"
)

func TestProfileTemplatesValidate(t *testing.T) {
	for _, p := range []Profile{ILPProfile("a"), MemProfile("b"), MixProfile("c")} {
		if err := p.Validate(); err != nil {
			t.Errorf("template %s invalid: %v", p.Name, err)
		}
	}
}

func TestProfileValidateErrors(t *testing.T) {
	base := ILPProfile("x")
	mut := []struct {
		name string
		fn   func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"zero mix", func(p *Profile) {
			p.MixInt, p.MixIntMul, p.MixFp, p.MixLoad, p.MixStore, p.MixBranch = 0, 0, 0, 0, 0, 0
		}},
		{"negative mix", func(p *Profile) { p.MixFp = -0.1 }},
		{"bad depp", func(p *Profile) { p.DepP = 0 }},
		{"bad twosrc", func(p *Profile) { p.TwoSrcFrac = 1.5 }},
		{"bad fpdata", func(p *Profile) { p.FpDataFrac = -1 }},
		{"zero ws", func(p *Profile) { p.WorkingSet = 0 }},
		{"bad stride", func(p *Profile) { p.StrideFrac = 2 }},
		{"stride+cold", func(p *Profile) { p.StrideFrac = 0.9; p.ColdFrac = 0.2 }},
		{"bad chase", func(p *Profile) { p.ChaseFrac = -0.1 }},
		{"no branch sites", func(p *Profile) { p.NumBranchSites = 0 }},
		{"bad bias", func(p *Profile) { p.BranchBias = 0.3 }},
		{"bad noise", func(p *Profile) { p.BranchNoise = 0.9 }},
		{"no code", func(p *Profile) { p.CodeFootprint = 0 }},
	}
	for _, m := range mut {
		p := base
		m.fn(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := MixProfile("det")
	a := NewGenerator(p, 42).Generate(5000)
	b := NewGenerator(p, 42).Generate(5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewGenerator(p, 43).Generate(100)
	same := 0
	for i := range c {
		if c[i] == a[i] {
			same++
		}
	}
	if same == len(c) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorMixFractions(t *testing.T) {
	p := MixProfile("mix")
	uops := NewGenerator(p, 7).Generate(200000)
	counts := map[isa.Class]int{}
	for i := range uops {
		counts[uops[i].Class]++
	}
	total := float64(len(uops))
	sum := p.MixInt + p.MixIntMul + p.MixFp + p.MixLoad + p.MixStore + p.MixBranch
	check := func(c isa.Class, want float64) {
		got := float64(counts[c]) / total
		if math.Abs(got-want/sum) > 0.01 {
			t.Errorf("class %v fraction %.3f, want %.3f", c, got, want/sum)
		}
	}
	check(isa.Int, p.MixInt)
	check(isa.IntMul, p.MixIntMul)
	check(isa.Fp, p.MixFp)
	check(isa.Load, p.MixLoad)
	check(isa.Store, p.MixStore)
	check(isa.Branch, p.MixBranch)
}

func TestGeneratorOperandKinds(t *testing.T) {
	uops := NewGenerator(MixProfile("ok"), 3).Generate(50000)
	for i := range uops {
		u := &uops[i]
		switch u.Class {
		case isa.Int, isa.IntMul:
			if isa.KindOf(u.Dst) != isa.IntReg {
				t.Fatalf("int uop with non-int dest: %v", u)
			}
		case isa.Fp:
			if isa.KindOf(u.Dst) != isa.FpReg {
				t.Fatalf("fp uop with non-fp dest: %v", u)
			}
			if isa.KindOf(u.Src1) != isa.FpReg {
				t.Fatalf("fp uop with non-fp source: %v", u)
			}
		case isa.Load:
			if !u.HasDest() {
				t.Fatalf("load without dest: %v", u)
			}
			if isa.KindOf(u.Src1) != isa.IntReg {
				t.Fatalf("load with non-int base: %v", u)
			}
		case isa.Store:
			if u.HasDest() {
				t.Fatalf("store with dest: %v", u)
			}
		case isa.Branch:
			if u.HasDest() {
				t.Fatalf("branch with dest: %v", u)
			}
		}
	}
}

func TestGeneratorBranchBias(t *testing.T) {
	p := ILPProfile("bias") // bias 0.97 loops
	uops := NewGenerator(p, 11).Generate(300000)
	perSite := map[uint64][2]int{}
	for i := range uops {
		if uops[i].Class != isa.Branch {
			continue
		}
		c := perSite[uops[i].PC]
		if uops[i].Taken {
			c[0]++
		} else {
			c[1]++
		}
		perSite[uops[i].PC] = c
	}
	if len(perSite) == 0 {
		t.Fatal("no branches generated")
	}
	for pc, c := range perSite {
		total := c[0] + c[1]
		if total < 100 {
			continue
		}
		dom := math.Max(float64(c[0]), float64(c[1])) / float64(total)
		// Loop period ~33 with 2% noise: dominant fraction should be high.
		if dom < 0.85 {
			t.Errorf("site %#x dominant outcome only %.2f", pc, dom)
		}
	}
}

func TestGeneratorColdAddresses(t *testing.T) {
	p := MemProfile("cold")
	uops := NewGenerator(p, 5).Generate(100000)
	cold, hot, mem := 0, 0, 0
	for i := range uops {
		if !uops[i].IsMem() {
			continue
		}
		mem++
		if uops[i].Addr >= coldBase {
			cold++
		} else {
			hot++
			if uops[i].Addr >= p.WorkingSet {
				t.Fatalf("hot address %#x outside working set", uops[i].Addr)
			}
		}
	}
	frac := float64(cold) / float64(mem)
	if math.Abs(frac-p.ColdFrac) > 0.01 {
		t.Errorf("cold fraction %.4f, want ~%.4f", frac, p.ColdFrac)
	}
}

func TestGeneratorPointerChase(t *testing.T) {
	p := MemProfile("chase") // ChaseFrac 0.85
	g := NewGenerator(p, 9)
	var lastColdDst int16 = -1
	chained, coldLoads := 0, 0
	for i := 0; i < 300000; i++ {
		u := g.Next()
		if u.Class == isa.Load && u.Addr >= coldBase {
			coldLoads++
			if u.Src1 == lastColdDst {
				chained++
			}
			lastColdDst = u.Dst
		}
	}
	if coldLoads == 0 {
		t.Fatal("no cold loads")
	}
	frac := float64(chained) / float64(coldLoads)
	if frac < p.ChaseFrac-0.1 {
		t.Errorf("chained fraction %.3f, want >= ~%.3f", frac, p.ChaseFrac)
	}
}

func TestWrongPathGeneratorNoBranches(t *testing.T) {
	w := NewWrongPathGenerator(MixProfile("wp"), 77)
	for i := 0; i < 20000; i++ {
		u := w.Next()
		if u.Class == isa.Branch {
			t.Fatal("wrong-path stream emitted a branch")
		}
	}
}

func TestDependencyDistanceOrdering(t *testing.T) {
	meanDist := func(depp float64) float64 {
		p := ILPProfile("dep")
		p.DepP = depp
		uops := NewGenerator(p, 42).Generate(100000)
		last := map[int16]int{}
		total, n := 0, 0
		for i := range uops {
			u := &uops[i]
			if u.Src1 != isa.RegNone {
				if j, ok := last[u.Src1]; ok {
					total += i - j
					n++
				}
			}
			if u.HasDest() {
				last[u.Dst] = i
			}
		}
		return float64(total) / float64(n)
	}
	tight := meanDist(0.6)
	loose := meanDist(0.07)
	if tight >= loose {
		t.Errorf("mean distance with DepP=0.6 (%.2f) should be below DepP=0.07 (%.2f)", tight, loose)
	}
}
