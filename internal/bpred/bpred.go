// Package bpred implements the front-end branch prediction of the paper's
// baseline machine (Table 1): a gshare conditional predictor with 32 K
// two-bit counters and a per-thread global history register (the history is
// the only front-end structure private per thread, §3).
//
// The predictor is consulted at fetch and trained at branch resolution.
// History is updated speculatively at fetch with the prediction; on a
// misprediction the core restores the checkpointed history and reapplies the
// actual outcome.
package bpred

// Config sizes the predictor structures.
type Config struct {
	// GshareEntries is the number of 2-bit counters (power of two).
	GshareEntries int
	// HistoryBits is the global-history length per thread.
	HistoryBits int
	// IndirectEntries sizes nothing: the core predicts branch outcomes
	// only, so the predictor has no indirect-target buffer. The field stays
	// for key stability: content keys hash the machine configuration, and
	// dropping it would change every stored result's key.
	IndirectEntries int
	// NumThreads is the number of hardware threads (one history each).
	NumThreads int
}

// DefaultConfig returns the Table 1 configuration for n threads.
//
// The history length is deliberately short: the synthetic traces carry
// little cross-branch outcome correlation, so long histories only spread
// each site over more counters and alias destructively (see
// trace.Generator). Two bits keeps the predictor at the per-site-bimodal
// operating point, which yields the realistic 3–15 % misprediction rates
// the paper's workload classes exhibit.
func DefaultConfig(n int) Config {
	return Config{
		GshareEntries:   32 * 1024,
		HistoryBits:     2,
		IndirectEntries: 4096,
		NumThreads:      n,
	}
}

// Predictor is a gshare predictor with per-thread histories.
// It is not safe for concurrent use.
type Predictor struct {
	cfg      Config
	counters []uint8 // 2-bit saturating counters
	history  []uint64
	mask     uint64
	histMask uint64

	lookups    uint64
	mispredict uint64
}

// New builds a predictor from cfg. Entry counts are rounded up to powers of
// two. Counters start weakly taken.
func New(cfg Config) *Predictor {
	p := &Predictor{}
	p.Reset(cfg)
	return p
}

// Reset makes p the predictor New(cfg) returns, in place: a table whose
// size cfg leaves unchanged is reused rather than reallocated.
func (p *Predictor) Reset(cfg Config) {
	if cfg.GshareEntries <= 0 {
		cfg.GshareEntries = 1
	}
	if cfg.NumThreads <= 0 {
		cfg.NumThreads = 1
	}
	if cfg.HistoryBits <= 0 {
		cfg.HistoryBits = 1
	}
	if cfg.HistoryBits > 63 {
		cfg.HistoryBits = 63
	}
	ge := ceilPow2(cfg.GshareEntries)
	if len(p.counters) != ge {
		p.counters = make([]uint8, ge)
	}
	if len(p.history) != cfg.NumThreads {
		p.history = make([]uint64, cfg.NumThreads)
	}
	*p = Predictor{
		cfg:      cfg,
		counters: p.counters,
		history:  p.history,
		mask:     uint64(ge - 1),
		histMask: (1 << uint(cfg.HistoryBits)) - 1,
	}
	for i := range p.counters {
		p.counters[i] = 2 // weakly taken
	}
	clear(p.history)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

//smtlint:noalloc
func (p *Predictor) index(thread int, pc uint64) uint64 {
	return ((pc >> 2) ^ p.history[thread]) & p.mask
}

// Predict returns the taken/not-taken prediction for the branch at pc and a
// history checkpoint to restore on misprediction. It speculatively updates
// the thread's history with the prediction.
//
//smtlint:noalloc
func (p *Predictor) Predict(thread int, pc uint64) (taken bool, checkpoint uint64) {
	p.lookups++
	checkpoint = p.history[thread]
	idx := p.index(thread, pc)
	taken = p.counters[idx] >= 2
	p.pushHistory(thread, taken)
	return taken, checkpoint
}

//smtlint:noalloc
func (p *Predictor) pushHistory(thread int, taken bool) {
	h := p.history[thread] << 1
	if taken {
		h |= 1
	}
	p.history[thread] = h & p.histMask
}

// Resolve trains the predictor with the actual outcome of the branch at pc.
// mispredicted tells the predictor to restore the checkpointed history and
// reapply the actual outcome (the wrong speculative history is discarded).
//
//smtlint:noalloc
func (p *Predictor) Resolve(thread int, pc uint64, checkpoint uint64, taken, mispredicted bool) {
	// Train the counter using the history the branch was predicted with.
	idx := ((pc >> 2) ^ checkpoint) & p.mask
	c := p.counters[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.counters[idx] = c
	if mispredicted {
		p.mispredict++
		p.history[thread] = checkpoint & p.histMask
		p.pushHistory(thread, taken)
	}
}

// RestoreHistory rewinds thread's global history to checkpoint. The core
// uses it when squashing fetched-but-unresolved branches (flushes), whose
// speculative history pushes must be undone without training.
//
//smtlint:noalloc
func (p *Predictor) RestoreHistory(thread int, checkpoint uint64) {
	p.history[thread] = checkpoint & p.histMask
}

// Stats returns the number of lookups and mispredictions so far.
func (p *Predictor) Stats() (lookups, mispredicts uint64) {
	return p.lookups, p.mispredict
}

// MispredictRate returns mispredictions per lookup (0 when unused).
func (p *Predictor) MispredictRate() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.mispredict) / float64(p.lookups)
}
