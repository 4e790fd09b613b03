package service

import (
	"errors"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/metrics"
)

// promLine matches one Prometheus text-format sample line:
// name{optional="labels"} value
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? [-+0-9.eE]+$`)

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricsEndpoint runs a small campaign and checks the scrape parses
// as Prometheus text and reflects the work: executed simulations, a done
// job, simulated cycles, and zero in-flight work once idle. A resubmission
// of the same manifest must then move only the store-hit counter.
func TestMetricsEndpoint(t *testing.T) {
	srv := startServer(t, Config{Workers: 2, SampleInterval: 1024})

	m := scrape(t, srv.URL)
	for _, name := range []string{
		`clustersmt_jobs{state="queued"}`,
		`clustersmt_jobs{state="running"}`,
		`clustersmt_jobs{state="done"}`,
		`clustersmt_jobs{state="failed"}`,
		`clustersmt_jobs{state="canceled"}`,
		"clustersmt_job_queue_depth",
		"clustersmt_sims_inflight",
		"clustersmt_sims_executed_total",
		"clustersmt_store_hits_total",
		"clustersmt_items_failed_total",
		"clustersmt_sim_cycles_total",
		"clustersmt_sim_cycles_per_second",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %s missing from scrape", name)
		}
	}
	if m["clustersmt_sims_executed_total"] != 0 {
		t.Fatalf("fresh daemon reports %v executed sims", m["clustersmt_sims_executed_total"])
	}

	manifest := `{"workloads": ["dh.ilp.2.1"], "schemes": ["icount", "cssp"], "trace_lens": [20000]}`
	st := submit(t, srv, manifest)
	waitFinished(t, srv, st.ID)

	m = scrape(t, srv.URL)
	if got := m["clustersmt_sims_executed_total"]; got != 2 {
		t.Errorf("executed_total = %v, want 2", got)
	}
	if got := m[`clustersmt_jobs{state="done"}`]; got != 1 {
		t.Errorf(`jobs{state="done"} = %v, want 1`, got)
	}
	if m["clustersmt_sim_cycles_total"] <= 0 {
		t.Error("no simulated cycles recorded despite sampling")
	}
	if m["clustersmt_sims_inflight"] != 0 || m["clustersmt_job_queue_depth"] != 0 {
		t.Errorf("idle daemon reports inflight=%v queue=%v",
			m["clustersmt_sims_inflight"], m["clustersmt_job_queue_depth"])
	}

	st2 := submit(t, srv, manifest)
	waitFinished(t, srv, st2.ID)
	m = scrape(t, srv.URL)
	if got := m["clustersmt_sims_executed_total"]; got != 2 {
		t.Errorf("executed_total after resubmit = %v, want 2 (store hits)", got)
	}
	if got := m["clustersmt_store_hits_total"]; got != 2 {
		t.Errorf("store_hits_total = %v, want 2", got)
	}
}

// putFails is a result store that never holds anything: every Get misses
// and every Put fails.
type putFails struct{}

func (putFails) Get(string) (*metrics.Stats, bool, error) { return nil, false, nil }
func (putFails) Put(string, *metrics.Stats) error         { return errors.New("disk full") }

// TestFleetMetrics checks the coordinator's section of the scrape in fleet
// mode: registry and queue gauges, dispatch counters, the held-lease gauge
// of an idle worker, and the store write failures, which the engine counts
// in fleet mode as in local mode — here one per item, since the store
// rejects every Put.
func TestFleetMetrics(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{Store: putFails{}, PollInterval: 5 * time.Second})
	srv := startServer(t, Config{Workers: 2, Store: putFails{}, Fleet: coord, SampleInterval: -1})

	names := []string{
		"clustersmt_fleet_workers",
		"clustersmt_fleet_tasks_pending",
		"clustersmt_fleet_tasks_leased",
		"clustersmt_fleet_leases_held",
		"clustersmt_fleet_tasks_done_total",
		"clustersmt_fleet_tasks_poisoned_total",
		"clustersmt_fleet_requeues_total",
		"clustersmt_fleet_lease_expirations_total",
		"clustersmt_fleet_duplicate_completions_total",
		"clustersmt_store_put_errors_total",
	}
	m := scrape(t, srv.URL)
	for _, name := range names {
		if v, ok := m[name]; !ok || v != 0 {
			t.Errorf("fresh coordinator: %s = %v (present %v), want 0", name, v, ok)
		}
	}

	startFleetWorkers(t, srv, 1)
	st := submit(t, srv, `{"workloads": ["dh.ilp.2.1"], "schemes": ["icount", "cssp"], "trace_lens": [2000]}`)
	if final := waitFinished(t, srv, st.ID); final.State != StateDone {
		t.Fatalf("fleet job state = %s (%s)", final.State, final.Error)
	}

	// Once the job is done the worker goes idle and its next lease request
	// is held open.
	deadline := time.Now().Add(5 * time.Second)
	for m = scrape(t, srv.URL); m["clustersmt_fleet_leases_held"] != 1; m = scrape(t, srv.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("leases_held = %v, want 1 for an idle worker", m["clustersmt_fleet_leases_held"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name, want := range map[string]float64{
		"clustersmt_fleet_workers":              1,
		"clustersmt_fleet_tasks_pending":        0,
		"clustersmt_fleet_tasks_leased":         0,
		"clustersmt_fleet_tasks_done_total":     2,
		"clustersmt_fleet_tasks_poisoned_total": 0,
		"clustersmt_store_put_errors_total":     2,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

// TestLocalModeHasNoFleetMetrics: the fleet section is fleet-mode only.
func TestLocalModeHasNoFleetMetrics(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})
	for name := range scrape(t, srv.URL) {
		if strings.HasPrefix(name, "clustersmt_fleet_") {
			t.Errorf("local-mode scrape carries %s", name)
		}
	}
}

// TestLocalStorePutErrors: in local mode every fresh result the store
// refuses counts once on /metrics, the items still succeed, and the count
// survives the engine recycling its runners between jobs.
func TestLocalStorePutErrors(t *testing.T) {
	srv := startServer(t, Config{Workers: 2, JobWorkers: 1, Store: putFails{}})
	if got, ok := scrape(t, srv.URL)["clustersmt_store_put_errors_total"]; !ok || got != 0 {
		t.Fatalf("fresh daemon: store_put_errors_total = %v (present %v), want 0", got, ok)
	}
	manifest := `{"workloads": ["dh.ilp.2.1"], "schemes": ["icount", "cssp"], "trace_lens": [1000]}`
	for want := 2.0; want <= 4; want += 2 {
		st := waitFinished(t, srv, submit(t, srv, manifest).ID)
		if st.State != StateDone || st.Executed != 2 {
			t.Fatalf("job %s: state %s, executed %d; want done with 2 fresh runs", st.ID, st.State, st.Executed)
		}
		if got := scrape(t, srv.URL)["clustersmt_store_put_errors_total"]; got != want {
			t.Errorf("store_put_errors_total = %v, want %v", got, want)
		}
	}
}
