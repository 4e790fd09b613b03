package core

import "encoding/json"

// SimVersion stamps simulation results with the simulator's behavioral
// revision. It participates in every content-addressed result key (see
// experiments.Runner.CacheKey), so bumping it invalidates all persisted
// results. Bump it whenever a change alters simulated outcomes — new
// timing model, policy fix, trace-generation change — and leave it alone
// for pure refactors (the event-driven wakeup, for instance, is
// bit-for-bit identical to polling and shares a version).
const SimVersion = "smtsim-2"

// Canonical returns the canonical serialized form of the configuration:
// defaults filled in, fields emitted in declaration order. Two configs with
// equal canonical forms run identical simulations (for the same scheme and
// programs), which is what makes the form safe to hash as a cache key.
func (c Config) Canonical() ([]byte, error) {
	return json.Marshal(c.withDefaults())
}
