package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
)

// defaultSeed is the seed whose result digests are pinned below.
const defaultSeed = 1

// pinnedDigests are the digests of submission 1's result rows at
// defaultSeed and full size (see digest). A change to simulated outcomes,
// cache keys or row assembly changes them.
var pinnedDigests = map[string]string{
	"cold-sweep":    "54e1eef18f8554a9776b4e3d8f647bdccecfa9f25ea1b9169da6c08c1ccc8b66",
	"warm-resubmit": "27483f7cef8a8e9ff6ad7537701845d5dcf031b30fccf74cedbe89ca1cf09a57",
	"fleet-mixed":   "78a1c4c1c5001d19afcb4c50436dda2a5ce17bc834b975c66eea8c54d6455c14",
}

// verifyError marks a submission whose outputs failed verification, as
// opposed to a benchmark that could not run.
type verifyError struct{ error }

func (e verifyError) Unwrap() error { return e.error }

// warmUp makes the untimed submission 0 that ends every set-up and verifies
// it like any other.
func warmUp(ctx context.Context, sys system) error {
	m, err := campaign.Parse(sys.manifest(0))
	if err != nil {
		return err
	}
	plan, err := campaign.NewPlan(m)
	if err != nil {
		return err
	}
	rs, err := sys.submit(ctx, 0, nil)
	if err != nil {
		return verifyError{err}
	}
	if err := check(sys, plan, rs); err != nil {
		return verifyError{err}
	}
	return nil
}

// check verifies one submission's ResultSet against its plan: every item
// answered without error, in plan order, and each row executed or recalled
// exactly as the workload prescribes, with tallies that agree.
func check(sys system, plan *campaign.Plan, rs *campaign.ResultSet) error {
	if rs.Total != len(plan.Items) || len(rs.Results) != len(plan.Items) {
		return fmt.Errorf("result set has total %d and %d rows, plan has %d items", rs.Total, len(rs.Results), len(plan.Items))
	}
	if rs.Failed != 0 {
		return fmt.Errorf("%d of %d items failed: %v", rs.Failed, rs.Total, rs.Err())
	}
	executed := 0
	for i, r := range rs.Results {
		if r.Error != "" {
			return fmt.Errorf("row %d (%s): %s", i, r.Label, r.Error)
		}
		if want := plan.Items[i].Label(); r.Label != want {
			return fmt.Errorf("row %d is %q, plan item is %q", i, r.Label, want)
		}
		if want := sys.stored(r); r.Cached != want {
			return fmt.Errorf("row %d (%s): cached=%v, want %v", i, r.Label, r.Cached, want)
		}
		if !r.Cached {
			executed++
		}
	}
	if rs.Executed != executed || rs.StoreHits != rs.Total-executed {
		return fmt.Errorf("tally executed=%d store_hits=%d, rows say %d executed of %d", rs.Executed, rs.StoreHits, executed, rs.Total)
	}
	return nil
}

// digest hashes the result rows without their provenance (cached) and
// time series (samples), which legitimately differ between runs of the
// same campaign.
func digest(rows []campaign.Result) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range rows {
		r.Cached = false
		r.Samples = nil
		if err := enc.Encode(r); err != nil {
			panic(err) // a Result of strings and numbers always encodes
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readThrough re-reads every row's entry from the store and checks it
// against the row. It returns the summed simulated cycles.
func readThrough(st experiments.ResultStore, rows []campaign.Result) (int64, error) {
	var cycles int64
	for i, r := range rows {
		s, ok, err := st.Get(r.Key)
		if err != nil || !ok {
			return 0, fmt.Errorf("row %d (%s): store entry %s unreadable (found=%v): %v", i, r.Label, r.Key, ok, err)
		}
		if s.IPC() != r.IPC {
			return 0, fmt.Errorf("row %d (%s): row IPC %v, store entry IPC %v", i, r.Label, r.IPC, s.IPC())
		}
		cycles += s.Cycles
	}
	return cycles, nil
}
