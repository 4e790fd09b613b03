package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTest(hist int) *Predictor {
	cfg := DefaultConfig(2)
	cfg.HistoryBits = hist
	return New(cfg)
}

func TestLearnsBiasedBranch(t *testing.T) {
	p := newTest(2)
	pc := uint64(0x400000)
	miss := 0
	for i := 0; i < 1000; i++ {
		taken, ckpt := p.Predict(0, pc)
		mis := taken != true
		p.Resolve(0, pc, ckpt, true, mis)
		if mis && i > 10 {
			miss++
		}
	}
	if miss > 0 {
		t.Errorf("%d mispredictions on an always-taken branch after warmup", miss)
	}
}

func TestLearnsAlternatingWithHistory(t *testing.T) {
	p := newTest(4)
	pc := uint64(0x400040)
	miss := 0
	for i := 0; i < 2000; i++ {
		actual := i%2 == 0
		pred, ckpt := p.Predict(0, pc)
		mis := pred != actual
		p.Resolve(0, pc, ckpt, actual, mis)
		if mis && i > 200 {
			miss++
		}
	}
	if rate := float64(miss) / 1800; rate > 0.05 {
		t.Errorf("alternating branch mispredict rate %.3f after warmup", rate)
	}
}

func TestHistoryRestoredOnMispredict(t *testing.T) {
	p := newTest(8)
	pc := uint64(0x400080)
	// Predict, force a mispredict resolution, and verify the history
	// equals checkpoint + actual outcome.
	_, ckpt := p.Predict(0, pc)
	p.Resolve(0, pc, ckpt, true, true)
	want := ((ckpt << 1) | 1) & p.histMask
	if p.history[0] != want {
		t.Errorf("history %b, want %b", p.history[0], want)
	}
}

func TestRestoreHistory(t *testing.T) {
	p := newTest(8)
	p.Predict(0, 0x1000)
	p.Predict(0, 0x2000)
	p.RestoreHistory(0, 0b1010)
	if p.history[0] != 0b1010 {
		t.Errorf("history %b after restore", p.history[0])
	}
}

func TestPerThreadHistoriesIndependent(t *testing.T) {
	p := newTest(8)
	h0 := p.history[0]
	p.Predict(1, 0x400000)
	if p.history[0] != h0 {
		t.Error("thread 1 prediction altered thread 0 history")
	}
}

func TestStatsCounting(t *testing.T) {
	p := newTest(2)
	for i := 0; i < 10; i++ {
		_, ckpt := p.Predict(0, 0x100)
		p.Resolve(0, 0x100, ckpt, i%2 == 0, i < 3)
	}
	lookups, mis := p.Stats()
	if lookups != 10 || mis != 3 {
		t.Errorf("stats = %d/%d, want 10/3", lookups, mis)
	}
	if p.MispredictRate() != 0.3 {
		t.Errorf("rate %v", p.MispredictRate())
	}
	if New(DefaultConfig(1)).MispredictRate() != 0 {
		t.Error("fresh predictor rate should be 0")
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 1000: 1024, 32768: 32768}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestDegenerateConfigs(t *testing.T) {
	// Zero/negative parameters must be normalized, not crash.
	p := New(Config{})
	if taken, _ := p.Predict(0, 0x1); taken != true {
		t.Log("weakly-taken init predicts taken") // informational
	}
	p2 := New(Config{GshareEntries: -5, HistoryBits: 99, IndirectEntries: -1, NumThreads: -2})
	p2.Predict(0, 0x4)
}

// Property: Predict never mutates counters (only Resolve trains), so two
// predictors fed identical Resolve sequences stay identical.
func TestDeterministicProperty(t *testing.T) {
	f := func(pcs []uint8, outcomes []bool) bool {
		a, b := newTest(4), newTest(4)
		n := len(pcs)
		if len(outcomes) < n {
			n = len(outcomes)
		}
		for i := 0; i < n; i++ {
			pc := uint64(pcs[i]) << 2
			ta, ca := a.Predict(0, pc)
			tb, cb := b.Predict(0, pc)
			if ta != tb || ca != cb {
				return false
			}
			a.Resolve(0, pc, ca, outcomes[i], ta != outcomes[i])
			b.Resolve(0, pc, cb, outcomes[i], tb != outcomes[i])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
