package xrand

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between distinct streams", same)
	}
}

func TestSplitMix64Reference(t *testing.T) {
	// Reference outputs for seed 0 from the published splitmix64.c.
	s := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&s); got != w {
			t.Fatalf("SplitMix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) should panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, samples = 10, 100000
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(samples) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	total := 0.0
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		total += f
	}
	if mean := total / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %v", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(11)
	const p, n = 0.25, 200000
	total := 0
	for i := 0; i < n; i++ {
		total += r.Geometric(p)
	}
	mean := float64(total) / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("Geometric(%v) mean %v, want ~%v", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(1)
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) must be 0")
	}
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) should panic", p)
				}
			}()
			r.Geometric(p)
		}()
	}
}

func TestPickWeights(t *testing.T) {
	r := New(17)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket picked %d times", counts[1])
	}
	if frac := float64(counts[2]) / n; math.Abs(frac-0.75) > 0.01 {
		t.Errorf("weight-3 bucket frequency %v, want ~0.75", frac)
	}
}

func TestPickPanicsOnBadWeights(t *testing.T) {
	r := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Pick with zero total should panic")
		}
	}()
	r.Pick([]float64{0, 0})
}

// Property: Intn reduction built on bits.Mul64 keeps every draw in range
// (the Lemire rejection loop depends on the full 128-bit product).
func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(bound); v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Intn(n) is deterministic given the same seed and call sequence.
func TestIntnDeterministicProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		bound := int(n%100) + 1
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Intn(bound) != b.Intn(bound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
