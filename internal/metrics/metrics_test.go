package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIPCAndThreadIPC(t *testing.T) {
	s := NewStats(2, 2)
	s.Cycles = 1000
	s.Committed[0] = 1500
	s.Committed[1] = 500
	if s.IPC() != 2.0 || s.ThreadIPC(0) != 1.5 || s.ThreadIPC(1) != 0.5 {
		t.Errorf("IPC math wrong: %v %v %v", s.IPC(), s.ThreadIPC(0), s.ThreadIPC(1))
	}
	if s.TotalCommitted() != 2000 {
		t.Error("TotalCommitted wrong")
	}
}

// TestIQOccSumSizedFromClusters pins the bugfix for the hardcoded 4-row
// occupancy matrix: the stats shape must follow the machine's actual
// cluster count, and out-of-range queries must stay safe.
func TestIQOccSumSizedFromClusters(t *testing.T) {
	for _, clusters := range []int{1, 2, 3, 4} {
		s := NewStats(2, clusters)
		if len(s.IQOccSum) != clusters {
			t.Errorf("NewStats(2, %d): %d IQOccSum rows", clusters, len(s.IQOccSum))
		}
		for c, row := range s.IQOccSum {
			if len(row) != 2 {
				t.Errorf("clusters=%d: row %d has %d thread slots", clusters, c, len(row))
			}
		}
		s.Cycles = 10
		if got := s.AvgIQOcc(clusters, 0); got != 0 {
			t.Errorf("AvgIQOcc past the last cluster = %v, want 0", got)
		}
	}
}

func TestZeroCycleSafety(t *testing.T) {
	s := NewStats(1, 2)
	if s.IPC() != 0 || s.ThreadIPC(0) != 0 || s.CopiesPerRetired() != 0 ||
		s.IQStallsPerRetired() != 0 || s.ImbalanceFrac(ImbInt, 0) != 0 {
		t.Error("zero-state metrics must be 0, not NaN")
	}
}

func TestRatios(t *testing.T) {
	s := NewStats(1, 2)
	s.Cycles = 100
	s.Committed[0] = 200
	s.CopyTransfers = 50
	s.IQStalls = 400
	if s.CopiesPerRetired() != 0.25 {
		t.Errorf("copies/ret %v", s.CopiesPerRetired())
	}
	if s.IQStallsPerRetired() != 2.0 {
		t.Errorf("stalls/ret %v (the paper's Fig. 4 exceeds 1: retries count)", s.IQStallsPerRetired())
	}
}

func TestImbalanceFrac(t *testing.T) {
	s := NewStats(1, 2)
	s.IssueCycles = 200
	s.Imbalance[ImbFp][1] = 50
	if s.ImbalanceFrac(ImbFp, 1) != 0.25 {
		t.Errorf("imbalance frac %v", s.ImbalanceFrac(ImbFp, 1))
	}
}

func TestImbClassNames(t *testing.T) {
	if ImbInt.String() != "Integer" || ImbFp.String() != "Fp/Simd" || ImbMem.String() != "Mem" {
		t.Error("Fig. 5 class names wrong")
	}
}

func TestAvgIQOcc(t *testing.T) {
	s := NewStats(2, 2)
	s.Cycles = 10
	s.IQOccSum[1][0] = 55
	if s.AvgIQOcc(1, 0) != 5.5 {
		t.Errorf("AvgIQOcc %v", s.AvgIQOcc(1, 0))
	}
	if s.AvgIQOcc(9, 0) != 0 {
		t.Error("out-of-range cluster must return 0")
	}
}

func TestFairnessEqualSlowdowns(t *testing.T) {
	// Both threads slowed down 2x: perfectly fair.
	f := Fairness([]float64{2, 1}, []float64{1, 0.5})
	if f != 1 {
		t.Errorf("equal slowdowns fairness %v, want 1", f)
	}
}

func TestFairnessAsymmetric(t *testing.T) {
	// Thread 0 slowed 2x, thread 1 slowed 4x: fairness = 0.5.
	f := Fairness([]float64{2, 2}, []float64{1, 0.5})
	if math.Abs(f-0.5) > 1e-12 {
		t.Errorf("fairness %v, want 0.5", f)
	}
}

func TestFairnessDegenerate(t *testing.T) {
	if Fairness([]float64{1}, []float64{1}) != 0 {
		t.Error("single thread has no pairwise fairness")
	}
	if Fairness([]float64{1, 1}, []float64{0, 1}) != 0 {
		t.Error("zero SMT IPC must yield 0")
	}
	if Fairness([]float64{1, 1}, []float64{1}) != 0 {
		t.Error("mismatched lengths must yield 0")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	ws := WeightedSpeedup([]float64{2, 1}, []float64{1, 0.5})
	if ws != 1.0 {
		t.Errorf("weighted speedup %v, want 1.0", ws)
	}
}

func TestStringMentionsKeyNumbers(t *testing.T) {
	s := NewStats(1, 2)
	s.Cycles = 100
	s.Committed[0] = 321
	out := s.String()
	if !strings.Contains(out, "321") || !strings.Contains(out, "cycles=100") {
		t.Errorf("String() = %q", out)
	}
}

// Properties of the fairness metric: symmetric in thread order, within
// [0,1], and equal to 1 iff slowdowns match.
func TestFairnessProperties(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		s0, s1 := float64(a%50)+1, float64(b%50)+1
		m0, m1 := float64(c%50)+1, float64(d%50)+1
		x := Fairness([]float64{s0, s1}, []float64{m0, m1})
		y := Fairness([]float64{s1, s0}, []float64{m1, m0})
		if math.Abs(x-y) > 1e-12 {
			return false
		}
		return x >= 0 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
