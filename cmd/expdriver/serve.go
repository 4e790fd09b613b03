package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/campaign/service"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/report"
)

// runServe implements `expdriver serve`: the long-running campaign daemon.
// Submissions share one engine (and one persistent store), so concurrent
// and repeated jobs deduplicate simulations exactly as -resume does for
// one-shot runs.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store", ".campaign", "persistent result store directory (empty disables persistence)")
	workers := fs.Int("workers", 0, "total concurrent simulations across all jobs (0 = NumCPU)")
	jobWorkers := fs.Int("job-workers", 2, "concurrently executing campaigns")
	maxQueue := fs.Int("max-queue", 256, "max jobs waiting for a job worker before submissions are rejected")
	maxFinished := fs.Int("max-finished", 512, "retained finished jobs (oldest evicted beyond this; their results stay in the store)")
	sampleInterval := fs.Int64("sample-interval", 0, "time-series window in cycles for the SSE event stream (0 = default 8192, rounded up to a power of two; negative disables sampling)")
	eventBuffer := fs.Int("event-buffer", 0, "per-job event ring size for GET /v1/campaigns/{id}/events (0 = 1024)")
	fleetMode := fs.Bool("fleet", false, "coordinator mode: dispatch items to registered fleet workers instead of simulating in-process (see `expdriver worker`)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "with -fleet: lease/heartbeat ttl before a worker's items requeue")
	retryMax := fs.Int("retry-max", 4, "with -fleet: attempts per item before it is poisoned (terminal failure)")
	verbose := fs.Bool("v", false, "log every simulation")
	fs.Parse(args)

	cfg := service.Config{
		Workers: *workers, JobWorkers: *jobWorkers, MaxQueue: *maxQueue, MaxFinished: *maxFinished,
		SampleInterval: *sampleInterval, EventBuffer: *eventBuffer,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Store = st
		fmt.Fprintf(os.Stderr, "store: %s\n", st.Dir())
	}
	if *verbose {
		cfg.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *fleetMode {
		// The coordinator shares the daemon's store: fleet workers read and
		// write it over /v1/store, so local and fleet runs hit one cache.
		cfg.Fleet = fleet.NewCoordinator(fleet.Config{
			Store:       cfg.Store,
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *retryMax,
			Verbose:     cfg.Verbose,
		})
		fmt.Fprintf(os.Stderr, "fleet: coordinator mode (lease ttl %s, %d attempts/item)\n", *leaseTTL, *retryMax)
	}
	svc := service.New(cfg)

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "expdriver serve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		svc.Close()
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "expdriver serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if cfg.Fleet != nil {
		// Shutdown waits for active handlers without cancelling them; end
		// the idle workers' held lease requests first.
		cfg.Fleet.Close()
	}
	srv.Shutdown(shutdownCtx)
	svc.Close() // cancels running jobs so shutdown is prompt
	return 0
}

// client is the thin HTTP client behind submit/status/cancel.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{base: addr, hc: &http.Client{Timeout: 30 * time.Second}}
}

// do issues one request and decodes the JSON response into out. Non-2xx
// responses surface the server's error field.
func (c *client) do(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s %s: %s (%d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// statusLine renders one job status as a compact summary line.
func statusLine(st *service.JobStatus) string {
	line := fmt.Sprintf("%s  %-9s %s  %d/%d done (%d executed, %d store hits, %d failed)",
		st.ID, st.State, st.Campaign, st.Done, st.Total, st.Executed, st.StoreHits, st.Failed)
	if st.Error != "" {
		line += "  [" + st.Error + "]"
	}
	return line
}

// runSubmit implements `expdriver submit`: POST a manifest to a serve
// daemon, optionally wait for completion and fetch the results.
func runSubmit(args []string) int {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "serve daemon base URL")
	wait := fs.Bool("wait", false, "poll until the job finishes and print the result table")
	jsonOut := fs.String("json", "", "with -wait: write the fetched ResultSet JSON to this file")
	csvOut := fs.String("csv", "", "with -wait: write the fetched results CSV to this file")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expdriver submit [-addr URL] [-wait] [-json out.json] [-csv out.csv] manifest.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	// Validate locally first: a bad manifest should fail with the full
	// validation message before a daemon is even contacted.
	m, err := campaign.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	body, err := json.Marshal(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	c := newClient(*addr)
	st := &service.JobStatus{}
	if err := c.do(http.MethodPost, "/v1/campaigns", bytes.NewReader(body), st); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(st.ID)
	fmt.Fprintln(os.Stderr, statusLine(st))
	if !*wait {
		return 0
	}

	for !st.State.Finished() {
		time.Sleep(500 * time.Millisecond)
		if err := c.do(http.MethodGet, "/v1/campaigns/"+st.ID, nil, st); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintln(os.Stderr, statusLine(st))
	}

	rs := &campaign.ResultSet{}
	if err := c.do(http.MethodGet, "/v1/campaigns/"+st.ID+"/results", nil, rs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(report.Table(fmt.Sprintf("Campaign %s (%s)", rs.Campaign, rs.Version),
		campaignHeader(m), campaignRows(m, rs)))
	if *jsonOut != "" {
		if err := report.WriteJSONFile(*jsonOut, rs); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(report.CSV(campaign.CSVHeader(), rs.CSVRows())), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			return 1
		}
	}
	if st.State != service.StateDone {
		return 1
	}
	return 0
}

// runStatus implements `expdriver status [id]`: one job's status (with the
// per-item breakdown) or, without an id, the daemon's full job list.
func runStatus(args []string) int {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "serve daemon base URL")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expdriver status [-addr URL] [job-id]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	c := newClient(*addr)
	switch fs.NArg() {
	case 0:
		var list []*service.JobStatus
		if err := c.do(http.MethodGet, "/v1/campaigns", nil, &list); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, st := range list {
			fmt.Println(statusLine(st))
		}
		return 0
	case 1:
		st := &service.JobStatus{}
		if err := c.do(http.MethodGet, "/v1/campaigns/"+fs.Arg(0)+"?items=1", nil, st); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(statusLine(st))
		var rows [][]string
		for _, it := range st.Items {
			source := ""
			if it.State == service.StateDone {
				source = "run"
				if it.Cached {
					source = "store"
				}
			}
			rows = append(rows, []string{it.Label, string(it.State), source, it.Error})
		}
		fmt.Println(report.Table("", []string{"item", "state", "source", "error"}, rows))
		return 0
	default:
		fs.Usage()
		return 2
	}
}

// runCancel implements `expdriver cancel id`.
func runCancel(args []string) int {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "serve daemon base URL")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expdriver cancel [-addr URL] job-id")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	c := newClient(*addr)
	st := &service.JobStatus{}
	if err := c.do(http.MethodDelete, "/v1/campaigns/"+fs.Arg(0), nil, st); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(os.Stderr, statusLine(st))
	return 0
}
