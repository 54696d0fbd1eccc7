package main

import (
	"sort"
	"sync"
	"time"

	"fex/internal/core"
	"fex/internal/workload"
)

// span is one timed call into a layer, recorded from outside the
// program. Times are seconds since the recorder's origin.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps the spans of one traced invocation in memory; kernel
// spans arrive from concurrent scheduler workers.
type recorder struct {
	run    string
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, origin: time.Now()}
}

func (r *recorder) at(t time.Time) float64 { return t.Sub(r.origin).Seconds() }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: r.run, Start: r.at(start), End: r.at(end)})
	return id
}

// begin opens a span at the current time and returns its ID; end closes
// it.
func (r *recorder) begin(name string, parent int) int {
	now := time.Now()
	return r.add(name, parent, now, now)
}

func (r *recorder) end(id int) {
	end := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end
}

// time runs fn inside a span named name and returns the span.
func (r *recorder) time(name string, parent int, fn func() error) (span, error) {
	id := r.begin(name, parent)
	err := fn()
	r.end(id)
	return r.get(id), err
}

func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

func (r *recorder) setParent(id, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Parent = parent
}

func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) children(parent int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (kernels of parallel
// cells) or stick out of the parent; only the union inside the parent
// counts.
func selfTime(parent span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// tracedWorkload times every kernel execution; the kernel only runs on
// an execution-memo miss, so its span count is the physical kernel count.
type tracedWorkload struct {
	workload.Workload
	rec *recorder
}

func (w tracedWorkload) Run(in workload.Input, threads int) (workload.Counters, error) {
	start := time.Now()
	c, err := w.Workload.Run(in, threads)
	w.rec.add("kernel", 0, start, time.Now())
	return c, err
}

// NeedsDryRun forwards the optional dry-run interface the wrapper would
// otherwise hide.
func (w tracedWorkload) NeedsDryRun() bool { return workload.NeedsDryRun(w.Workload) }

// tracedRegistry wraps every workload of base so its kernels record
// spans into rec.
func tracedRegistry(base *workload.Registry, rec *recorder) (*workload.Registry, error) {
	reg := workload.NewRegistry()
	for _, suite := range base.Suites() {
		ws, err := base.Suite(suite)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			if err := reg.Register(tracedWorkload{Workload: w, rec: rec}); err != nil {
				return nil, err
			}
		}
	}
	return reg, nil
}

// observer collects a run's progress events and streaming-log writes
// with their arrival times. Both hooks may be called from concurrent
// workers.
type observer struct {
	mu      sync.Mutex
	planAt  time.Time
	plan    core.ProgressEvent
	cellsAt []time.Time
	hosts   []core.HostStatus
	writes  []sinkWrite
}

type sinkWrite struct {
	at time.Time
	n  int
}

func (o *observer) progress(ev core.ProgressEvent) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	switch ev.Stage {
	case "plan":
		o.planAt, o.plan = now, ev
	case "cell":
		o.cellsAt = append(o.cellsAt, now)
	}
	if ev.Hosts != nil {
		o.hosts = ev.Hosts
	}
}

func (o *observer) Write(p []byte) (int, error) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.writes = append(o.writes, sinkWrite{at: now, n: len(p)})
	return len(p), nil
}

// lastCell is when the last cell settled, or the plan event when no cell
// event arrived.
func (o *observer) lastCell() time.Time {
	last := o.planAt
	for _, t := range o.cellsAt {
		if t.After(last) {
			last = t
		}
	}
	return last
}

// sinkStats reports when the first cell record reached the log sink
// (relative to runStart) and the share of cell-record bytes delivered by
// the time the last cell settled. Everything the sink receives after the
// plan event is cell records; header and environment are flushed before
// the runner starts.
func (o *observer) sinkStats(runStart time.Time) (firstRecord, earlyRatio float64) {
	last := o.lastCell()
	var total, early int
	first := time.Time{}
	for _, w := range o.writes {
		if w.at.Before(o.planAt) {
			continue
		}
		if first.IsZero() {
			first = w.at
		}
		total += w.n
		if !w.at.After(last) {
			early += w.n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return first.Sub(runStart).Seconds(), float64(early) / float64(total)
}

// cellGaps returns the intervals between consecutive settled cells,
// starting from the plan event, in milliseconds.
func (o *observer) cellGaps() []float64 {
	ts := append([]time.Time(nil), o.cellsAt...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	prev := o.planAt
	var gaps []float64
	for _, t := range ts {
		gaps = append(gaps, float64(t.Sub(prev))/1e6)
		prev = t
	}
	return gaps
}
