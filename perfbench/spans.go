package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/service"
)

// subObs is what one traced submission observed, on the probe clock.
type subObs struct {
	p          *probe
	index      int
	start, end time.Duration
	planStart  time.Duration
	planEnd    time.Duration

	mu      sync.Mutex
	started map[int]time.Duration // item pickup (ItemEvent.Started or a running frame)
	done    map[int]time.Duration // item completion

	sseFrames int
	job       *service.JobStatus
	rs        *campaign.ResultSet
	storeOps  []storeOp
	httpOps   []httpOp
	gcCycles  uint32
	gcPause   time.Duration
}

func newSubObs(p *probe, i int) *subObs {
	return &subObs{p: p, index: i, started: map[int]time.Duration{}, done: map[int]time.Duration{}}
}

func (o *subObs) itemEvent(i int, started bool) {
	t := o.p.now()
	o.mu.Lock()
	if started {
		o.started[i] = t
	} else {
		o.done[i] = t
	}
	o.mu.Unlock()
}

// keep retains the probe records that started inside the submission.
func (o *subObs) keep(store []storeOp, hops []httpOp) {
	for _, op := range store {
		if op.start >= o.start && op.start <= o.end {
			o.storeOps = append(o.storeOps, op)
		}
	}
	for _, op := range hops {
		if op.start >= o.start && op.start <= o.end {
			o.httpOps = append(o.httpOps, op)
		}
	}
}

// idle returns, per fleet worker, the intervals inside the submission in
// which the worker neither had a lease request in flight nor held leased
// tasks: it was sleeping out the poll interval.
func (o *subObs) idle() map[string][][2]time.Duration {
	byWorker := map[string][]httpOp{}
	for _, op := range o.httpOps {
		if op.kind == "lease" {
			byWorker[op.worker] = append(byWorker[op.worker], op)
		}
	}
	out := map[string][][2]time.Duration{}
	for w, ops := range byWorker {
		sort.Slice(ops, func(a, b int) bool { return ops[a].start < ops[b].start })
		from := o.start // idle until the first lease of the submission
		for _, op := range ops {
			if op.start > from {
				out[w] = append(out[w], [2]time.Duration{from, op.start})
			}
			from = o.end // busy until the next lease request ...
			if op.tasks == 0 {
				from = op.end // ... unless the lease came back empty
			}
		}
		if from < o.end {
			out[w] = append(out[w], [2]time.Duration{from, o.end})
		}
	}
	return out
}

// span is one traced interval. Spans of one submission share Sub; a span's
// Parent is the span that caused it (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Sub    int     `json:"submission"`
	Name   string  `json:"name"`
	Item   int     `json:"item"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
}

// layer is the module a span times: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

type spanLog struct {
	spans []span
}

func (l *spanLog) add(sub, parent int, name string, item int, start, end time.Duration) int {
	if end < start {
		end = start
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Sub: sub, Name: name, Item: item, Start: ms(start), End: ms(end)})
	return id
}

// within clips [start, start+d) to the parent span's interval.
func (l *spanLog) within(parent int, start, d time.Duration) (time.Duration, time.Duration) {
	p := l.spans[parent-1]
	end := start + d
	if lim := time.Duration(p.End * float64(time.Millisecond)); end > lim {
		end = lim
	}
	return start, end
}

// record turns one traced submission into spans. The trace and core spans
// of an executed item come from re-driving it (drives) and are laid into
// the item's interval from its start, so the item's self time is what the
// runner and engine add around them.
func (l *spanLog) record(o *subObs, drives map[int]drive) {
	sub := o.index
	if o.planEnd > o.planStart {
		l.add(sub, 0, "campaign.plan", -1, o.planStart, o.planEnd)
	}
	root := l.add(sub, 0, "bench.submission", -1, o.start, o.end)
	itemParent, fleetParent := root, root
	for _, op := range o.httpOps {
		switch op.kind {
		case "submit", "results", "status":
			l.add(sub, root, "service."+op.kind, -1, op.start, op.end)
		case "events":
			ev := l.add(sub, root, "service.events", -1, op.start, op.end)
			if o.job != nil && o.job.Started != nil && o.job.Finished != nil {
				l.add(sub, ev, "service.queue", -1, o.p.at(o.job.Submitted), o.p.at(*o.job.Started))
				itemParent = l.add(sub, ev, "service.job", -1, o.p.at(*o.job.Started), o.p.at(*o.job.Finished))
				fleetParent = itemParent
			}
		}
	}
	keyItem := map[string]int{}
	if o.rs != nil {
		for i, r := range o.rs.Results {
			keyItem[r.Key] = i
		}
	}
	items := map[int]int{}
	idxs := make([]int, 0, len(o.started))
	for i := range o.started {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		end, ok := o.done[i]
		if !ok {
			continue
		}
		items[i] = l.add(sub, itemParent, "campaign.item", i, o.started[i], end)
		if d, ok := drives[i]; ok {
			at := o.started[i]
			for _, part := range []struct {
				name string
				d    time.Duration
			}{{"trace.gen", d.gen}, {"core.build", d.build}, {"core.run", d.run}} {
				if part.d == 0 {
					continue
				}
				s, e := l.within(items[i], at, part.d)
				l.add(sub, items[i], part.name, i, s, e)
				at += part.d
			}
		}
	}
	parentOf := func(key string) (int, int) {
		if i, ok := keyItem[key]; ok {
			if id, ok := items[i]; ok {
				return id, i
			}
		}
		return itemParent, -1
	}
	type remote struct {
		id         int
		key        string
		start, end time.Duration
	}
	var remotes []remote
	for _, op := range o.httpOps {
		switch op.kind {
		case "lease", "complete":
			l.add(sub, fleetParent, "fleet."+op.kind, -1, op.start, op.end)
		case "store_get", "store_put":
			parent, item := parentOf(op.key)
			name := "fleet.remote_get"
			if op.kind == "store_put" {
				name = "fleet.remote_put"
			}
			remotes = append(remotes, remote{l.add(sub, parent, name, item, op.start, op.end), op.key, op.start, op.end})
		}
	}
	for _, op := range o.storeOps {
		parent, item := parentOf(op.key)
		for _, r := range remotes { // the coordinator's side of a worker's remote call
			if r.key == op.key && r.start <= op.start && op.end <= r.end {
				parent = r.id
				break
			}
		}
		name := "store.get"
		if op.put {
			name = "store.put"
		}
		l.add(sub, parent, name, item, op.start, op.end)
	}
	for _, ivs := range o.idle() {
		for _, iv := range ivs {
			l.add(sub, fleetParent, "fleet.idle", -1, iv[0], iv[1])
		}
	}
}

// selfTimes fills each span's self time: its duration minus the part of its
// interval that its children cover.
func (l *spanLog) selfTimes() {
	children := map[int][][2]float64{}
	for _, s := range l.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, cur := 0.0, s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], cur), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// layerShare is one module's summed self time in one submission.
type layerShare struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// shares sums self time per layer over submission sub's spans.
func (l *spanLog) shares(sub int) []layerShare {
	by := map[string]float64{}
	total := 0.0
	for _, s := range l.spans {
		if s.Sub == sub {
			by[s.layer()] += s.Self
			total += s.Self
		}
	}
	var out []layerShare
	for name, v := range by {
		out = append(out, layerShare{Layer: name, SelfMS: v, Share: v / max(total, 1e-9)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// write stores the spans and submission sub's per-layer self-time table as
// JSON and prints the table. Submission 1 is the one whose executed items
// were re-driven, so only its table covers the trace and core layers.
func (l *spanLog) write(dir, name string, sub int, log io.Writer) (string, error) {
	l.selfTimes()
	shares := l.shares(sub)
	fmt.Fprintf(log, "submission %d self time by layer:\n%-10s %12s %8s\n", sub, "layer", "self ms", "share")
	for _, s := range shares {
		fmt.Fprintf(log, "%-10s %12.3f %7.1f%%\n", s.Layer, s.SelfMS, 100*s.Share)
	}
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(struct {
		Layers []layerShare `json:"layers"`
		Spans  []span       `json:"spans"`
	}{shares, l.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
