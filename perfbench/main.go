// Command perfbench is the campaign benchmark: it times manifests from
// submission to a verified ResultSet through the repository's public entry
// points — campaign.Engine, the campaign service over HTTP, and a fleet of
// in-process workers — and, in a separate traced run, reports what each
// layer underneath contributed. See README.md in this directory.
//
//	go run . --workload cold-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/experiments"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	workDir  string
	spansDir string
	// digests maps a workload to the expected digest of submission 1's
	// rows at defaultSeed ("" or absent = not pinned).
	digests map[string]string
	// afterSeed, when set, runs on warm-resubmit's store after seeding
	// (tests tamper with it here).
	afterSeed func(*store.Store) error
	log       io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	opts := &options{sizes: fullSizes, digests: pinnedDigests, log: os.Stderr}
	fs.StringVar(&opts.workload, "workload", "cold-sweep", "cold-sweep, warm-resubmit or fleet-mixed")
	fs.Uint64Var(&opts.seed, "seed", defaultSeed, "draws each workload's sample of pool workloads")
	fs.Float64Var(&opts.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opts.workDir, "workdir", ".bench_build/work", "scratch directory for stores")
	fs.StringVar(&opts.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	opts.trace = *traceFlag == 1

	// A run must end within three minutes, whatever hangs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	res, err := run(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// setups is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the timed phase.
const setups = 3

// minSubmissions is how many timed submissions a run makes even past its
// time limit: enough for a median, and for the traced run to have both
// traced and untraced submissions.
const minSubmissions = 3

// subRec is one timed submission.
type subRec struct {
	index        int
	traced       bool
	latency      time.Duration
	items        int
	executedKeys []string
}

// run sets the workload up setups times, keeps the last set-up, runs
// the closed loop for opts.seconds and verifies everything it got back.
// An error means the benchmark could not run; a run whose outputs fail
// verification returns a result with Correct false.
func run(ctx context.Context, opts *options) (*result, error) {
	def, err := findWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	p := newProbe()
	work := filepath.Join(opts.workDir, fmt.Sprintf("%s-%d", opts.workload, os.Getpid()))
	defer os.RemoveAll(work)

	var setupS []float64
	var sys system
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		s, err := def.setup(ctx, env{dir: filepath.Join(work, strconv.Itoa(k)), probe: p, opts: opts})
		var verr verifyError
		if errors.As(err, &verr) {
			fmt.Fprintln(opts.log, "perfbench: FAILED: set-up:", err)
			return &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k == setups-1 {
			sys = s
			break
		}
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	defer sys.close()

	res := &result{Metrics: map[string]metric{}}
	var (
		recs      []subRec
		traced    []*subObs
		first     *campaign.ResultSet
		firstPlan *campaign.Plan
		runErr    error
		allocated uint64 // heap bytes allocated during submissions
	)
	runtime.GC()
	failed0 := p.httpFailed.Load() // set-up teardowns cancel worker calls
	loopStart := time.Now()
	for i := 1; ; i++ {
		if c := sys.capacity(); c > 0 && i >= c {
			break
		}
		if len(recs) >= minSubmissions && time.Since(loopStart).Seconds() >= opts.seconds {
			break
		}
		var obs *subObs
		if opts.trace && i%2 == 1 {
			obs = newSubObs(p, i)
			obs.planStart = p.now()
		}
		m, err := campaign.Parse(sys.manifest(i))
		if err != nil {
			return nil, err
		}
		plan, err := campaign.NewPlan(m)
		if err != nil {
			return nil, err
		}
		res.Attempted += len(plan.Items)
		var gc0 runtime.MemStats
		if obs != nil {
			obs.planEnd = p.now()
			runtime.ReadMemStats(&gc0)
			p.on.Store(true)
			obs.start = p.now()
		}

		a0 := heapAllocs()
		t0 := time.Now()
		rs, err := sys.submit(ctx, i, obs)
		if err == nil {
			err = check(sys, plan, rs)
		}
		if err == nil && i == 1 {
			err = checkDigest(opts, rs.Results)
		}
		lat := time.Since(t0)
		allocated += heapAllocs() - a0

		if obs != nil {
			obs.end = p.now()
			p.on.Store(false)
			var gc1 runtime.MemStats
			runtime.ReadMemStats(&gc1)
			obs.gcCycles = gc1.NumGC - gc0.NumGC
			obs.gcPause = time.Duration(gc1.PauseTotalNs - gc0.PauseTotalNs)
			obs.rs = rs
			obs.keep(p.drain())
			traced = append(traced, obs)
		}
		if err != nil {
			res.Failed += len(plan.Items)
			runErr = fmt.Errorf("submission %d: %w", i, err)
			break
		}
		rec := subRec{index: i, traced: obs != nil, latency: lat, items: rs.Total}
		for _, r := range rs.Results {
			if !r.Cached {
				rec.executedKeys = append(rec.executedKeys, r.Key)
			}
		}
		recs = append(recs, rec)
		if i == 1 {
			first, firstPlan = rs, plan
		}
	}
	loopDur := time.Since(loopStart)
	httpFailed := int(p.httpFailed.Load() - failed0)
	if httpFailed > 0 {
		fmt.Fprintf(opts.log, "perfbench: %d HTTP calls failed in the timed phase\n", httpFailed)
	}

	if runErr == nil && len(recs) < 2 {
		runErr = fmt.Errorf("only %d timed submissions", len(recs))
	}
	var simCycles int64
	var simUops uint64
	if runErr == nil {
		simCycles, simUops, runErr = readBack(sys, first, recs)
	}
	var drives *redriveTotals
	if runErr == nil && opts.trace {
		drives, runErr = redrive(ctx, firstPlan, first.Results, sys.storeFor(1))
	}
	if runErr != nil {
		fmt.Fprintln(opts.log, "perfbench: FAILED:", runErr)
		return res, nil
	}
	res.Correct = true

	items := 0
	var lats []float64
	for _, r := range recs {
		items += r.items
		lats = append(lats, ms(r.latency))
	}
	fmt.Fprintf(opts.log, "%s seed %d: %d timed submissions (%d items) in %.2fs, latency p50 %.2f ms over %d samples, %d executed per submission\n",
		opts.workload, opts.seed, len(recs), items, loopDur.Seconds(), quantile(lats, 0.5), len(lats), first.Executed)

	if !opts.trace {
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		res.Metrics = map[string]metric{
			"setup_s":           {quantile(setupS, 0.5), "s"},
			"latency_p50_ms":    {quantile(lats, 0.5), "ms"},
			"latency_p90_ms":    {quantile(lats, 0.9), "ms"},
			"items_per_s":       {float64(items) / loopDur.Seconds(), "1/s"},
			"alloc_mb_per_item": {float64(allocated) / (1 << 20) / float64(items), "MB"},
			"peak_rss_mb":       {rss, "MB"},
		}
		return res, nil
	}

	var spans spanLog
	for _, o := range traced {
		var d map[int]drive
		if o.index == 1 {
			d = drives.items
		}
		spans.record(o, d)
	}
	path, err := spans.write(opts.spansDir, fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed), 1, opts.log)
	if err != nil {
		return nil, err
	}
	if path != "" {
		fmt.Fprintf(opts.log, "spans: %s\n", path)
	}
	res.Metrics = layerMetrics(opts, sys, recs, traced, first, firstPlan, drives, simCycles, simUops, loopDur, res, httpFailed)
	return res, nil
}

// checkDigest compares submission 1's rows with the pinned digest when the
// run uses the default seed.
func checkDigest(opts *options, rows []campaign.Result) error {
	got := digest(rows)
	fmt.Fprintf(opts.log, "%s seed %d: submission 1 digest %s\n", opts.workload, opts.seed, got)
	if opts.seed != defaultSeed {
		return nil
	}
	if want := opts.digests[opts.workload]; want != "" && got != want {
		return fmt.Errorf("result digest %s, want %s", got, want)
	}
	return nil
}

// readBack reads submission 1's rows back through the store (their summed
// cycles) and the executed rows of every timed submission (their
// measured-window committed uops).
func readBack(sys system, first *campaign.ResultSet, recs []subRec) (int64, uint64, error) {
	cycles, err := readThrough(sys.storeFor(1), first.Results)
	if err != nil {
		return 0, 0, err
	}
	var uops uint64
	for _, r := range recs {
		st := sys.storeFor(r.index)
		for _, k := range r.executedKeys {
			s, ok, err := st.Get(k)
			if err != nil || !ok {
				return 0, 0, fmt.Errorf("submission %d: executed entry %s unreadable (found=%v): %v", r.index, k, ok, err)
			}
			uops += s.TotalCommitted()
		}
	}
	return cycles, uops, nil
}

// layerMetrics assembles the traced run's per-layer metrics. httpFailed is
// the number of HTTP calls that failed in the timed phase.
func layerMetrics(opts *options, sys system, recs []subRec, traced []*subObs, first *campaign.ResultSet, plan *campaign.Plan,
	d *redriveTotals, simCycles int64, simUops uint64, loopDur time.Duration, res *result, httpFailed int) map[string]metric {
	var tracedLat, plainLat []float64
	for _, r := range recs {
		if r.traced {
			tracedLat = append(tracedLat, ms(r.latency))
		} else {
			plainLat = append(plainLat, ms(r.latency))
		}
	}
	overhead := 0.0
	if len(plainLat) > 0 {
		overhead = quantile(tracedLat, 0.5) / quantile(plainLat, 0.5)
	}

	var (
		planMS, itemMS, waitMS, gcCycles, gcPause         []float64
		getUS, putUS, submitMS, queueMS, jobMS, resultsMS []float64
		resultsKB, leaseRTT, completeRTT, remoteGet       []float64
		remotePut, idleMS, leasesPerSub                   []float64
		hits, total, leases, yielded                      int
	)
	for _, o := range traced {
		planMS = append(planMS, ms(o.planEnd-o.planStart))
		gcCycles = append(gcCycles, float64(o.gcCycles))
		gcPause = append(gcPause, ms(o.gcPause))
		hits += o.rs.StoreHits
		total += o.rs.Total
		for i, s := range o.started {
			if e, ok := o.done[i]; ok {
				itemMS = append(itemMS, ms(e-s))
				waitMS = append(waitMS, ms(s-o.start))
			}
		}
		for _, op := range o.storeOps {
			if op.put {
				putUS = append(putUS, us(op.end-op.start))
			} else {
				getUS = append(getUS, us(op.end-op.start))
			}
		}
		n := 0
		for _, op := range o.httpOps {
			d := op.end - op.start
			switch op.kind {
			case "submit":
				submitMS = append(submitMS, ms(d))
			case "results":
				resultsMS = append(resultsMS, ms(d))
				resultsKB = append(resultsKB, float64(op.bytes)/1024)
			case "lease":
				n++
				leaseRTT = append(leaseRTT, ms(d))
				if op.tasks > 0 {
					yielded++
				}
			case "complete":
				completeRTT = append(completeRTT, ms(d))
			case "store_get":
				remoteGet = append(remoteGet, us(d))
			case "store_put":
				remotePut = append(remotePut, us(d))
			}
		}
		leases += n
		leasesPerSub = append(leasesPerSub, float64(n))
		if o.job != nil && o.job.Started != nil && o.job.Finished != nil {
			queueMS = append(queueMS, ms(o.job.Started.Sub(o.job.Submitted)))
			jobMS = append(jobMS, ms(o.job.Finished.Sub(*o.job.Started)))
		}
		idle := time.Duration(0)
		for _, ivs := range o.idle() {
			for _, iv := range ivs {
				idle += iv[1] - iv[0]
			}
		}
		if n > 0 {
			idleMS = append(idleMS, ms(idle))
		}
	}
	o1 := traced[0] // submission 1: the counts below are its own
	gets, puts, storeErrs := 0, 0, 0
	for _, op := range o1.storeOps {
		if op.put {
			puts++
		} else {
			gets++
		}
		if op.err {
			storeErrs++
		}
	}
	var requeues, duplicates float64
	if fs, ok := sys.(*fleetSystem); ok {
		q := fs.queueStats()
		requeues, duplicates = float64(q.Requeues), float64(q.Duplicates)
	}

	// experiments.CacheKey on a fresh Runner, once per item of submission 1.
	var keyUS []float64
	runners := map[int]*experiments.Runner{}
	for _, it := range plan.Items {
		r, ok := runners[it.TraceLen]
		if !ok {
			r = experiments.NewRunner(it.TraceLen)
			runners[it.TraceLen] = r
		}
		t0 := time.Now()
		r.CacheKey(it.Spec)
		keyUS = append(keyUS, us(time.Since(t0)))
	}

	nsPerCycle := 0.0
	if d.cycles > 0 {
		nsPerCycle = float64(d.run.Nanoseconds()) / float64(d.cycles)
	}
	yield := 0.0
	if leases > 0 {
		yield = float64(yielded) / float64(leases)
	}
	if opts.workload == "cold-sweep" {
		slowest := 0.0
		for _, v := range itemMS {
			slowest = max(slowest, v)
		}
		fmt.Fprintf(opts.log, "cold-sweep: sum(gen+build+run)/%d + slowest item = %.1f ms; traced latency p50 %.1f ms\n",
			simWorkers, ms(d.gen+d.build+d.run)/simWorkers+slowest, quantile(tracedLat, 0.5))
	}
	return map[string]metric{
		"executed_sims":  {float64(first.Executed), "count"},
		"sim_cycles":     {float64(simCycles), "count"},
		"sim_uops_per_s": {float64(simUops) / loopDur.Seconds(), "1/s"},
		"error_rate":     {float64(res.Failed+httpFailed) / float64(max(res.Attempted, 1)), "ratio"},

		"trace.gen_ms":          {ms(d.gen), "ms"},
		"trace.uops":            {float64(d.uops), "count"},
		"core.build_ms":         {ms(d.build), "ms"},
		"core.run_ms":           {ms(d.run), "ms"},
		"core.ns_per_cycle":     {nsPerCycle, "ns"},
		"core.cycles":           {float64(d.cycles), "count"},
		"core.renamed":          {float64(d.renamed), "count"},
		"core.squashed":         {float64(d.squashed), "count"},
		"core.copies":           {float64(d.copies), "count"},
		"core.iq_stalls":        {float64(d.iqStalls), "count"},
		"core.flushes":          {float64(d.flushes), "count"},
		"cachesim.l1_accesses":  {float64(d.l1Accesses), "count"},
		"cachesim.l1_misses":    {float64(d.l1Misses), "count"},
		"cachesim.l2_misses":    {float64(d.l2Misses), "count"},
		"cachesim.coalesced":    {float64(d.coalesced), "count"},
		"experiments.key_us":    {quantile(keyUS, 0.5), "us"},
		"experiments.hit_ratio": {float64(hits) / float64(max(total, 1)), "ratio"},

		"campaign.plan_ms":          {quantile(planMS, 0.5), "ms"},
		"campaign.item_ms_p50":      {quantile(itemMS, 0.5), "ms"},
		"campaign.item_wait_ms_p50": {quantile(waitMS, 0.5), "ms"},

		"store.get_us_p50": {quantile(getUS, 0.5), "us"},
		"store.get_us_p99": {quantile(getUS, 0.99), "us"},
		"store.put_us_p50": {quantile(putUS, 0.5), "us"},
		"store.gets":       {float64(gets), "count"},
		"store.puts":       {float64(puts), "count"},
		"store.errors":     {float64(storeErrs), "count"},

		"service.submit_ms":  {quantile(submitMS, 0.5), "ms"},
		"service.queue_ms":   {quantile(queueMS, 0.5), "ms"},
		"service.job_ms":     {quantile(jobMS, 0.5), "ms"},
		"service.results_ms": {quantile(resultsMS, 0.5), "ms"},
		"service.results_kb": {quantile(resultsKB, 0.5), "kB"},
		"service.sse_frames": {float64(o1.sseFrames), "count"},

		"fleet.lease_requests":      {quantile(leasesPerSub, 0.5), "count"},
		"fleet.lease_yield":         {yield, "ratio"},
		"fleet.lease_rtt_ms_p50":    {quantile(leaseRTT, 0.5), "ms"},
		"fleet.complete_rtt_ms_p50": {quantile(completeRTT, 0.5), "ms"},
		"fleet.remote_get_us_p50":   {quantile(remoteGet, 0.5), "us"},
		"fleet.remote_put_us_p50":   {quantile(remotePut, 0.5), "us"},
		"fleet.worker_idle_ms":      {quantile(idleMS, 0.5), "ms"},
		"fleet.requeues":            {requeues, "count"},
		"fleet.duplicates":          {duplicates, "count"},

		"go.gc_cycles":   {quantile(gcCycles, 0.5), "count"},
		"go.gc_pause_ms": {quantile(gcPause, 0.5), "ms"},

		"bench.tracing_overhead": {overhead, "ratio"},
	}
}

var allocsSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the bytes allocated on the heap so far, without
// stopping the world as runtime.ReadMemStats does.
func heapAllocs() uint64 {
	rtmetrics.Read(allocsSample)
	return allocsSample[0].Value.Uint64()
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
