package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"fex/internal/core"
	"fex/internal/workload"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 5
	// minSamples is the fewest timed invocations a run makes, even when
	// they overrun the measuring time.
	minSamples = 3
)

// bench is one benchmark run: one workload, one seed.
type bench struct {
	spec   spec
	order  order
	seed   int64
	fexBin string
	dir    string // scratch directory of this run
	trace  bool

	// Set up by setup.
	ref         string // CSV digest of the serial reference run
	seedState   string // warm workloads: the state the reference left
	seedRecords int    // warm workloads: cells stored in seedState
	base        *workload.Registry

	res *result
}

// setup runs the serial reference setupReps times, checking that it
// reproduces its own digest, and prepares one timed invocation after
// each: the warm state copy or the in-process cluster instance.
func (b *bench) setup(ctx context.Context) error {
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		dir := filepath.Join(b.dir, fmt.Sprintf("ref%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		state := ""
		if b.spec.state {
			state = filepath.Join(dir, "fex.state")
		}
		out := filepath.Join(dir, "out")
		s, csv, err := runCLI(ctx, b.fexBin, b.spec.cliArgs(b.order, true, state, out), out)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		if s.Records != b.spec.records {
			return fmt.Errorf("reference run: %d measurements, want %d", s.Records, b.spec.records)
		}
		d := digest(csv)
		if k == 0 {
			b.ref = d
			b.seedState = state
		} else if d != b.ref {
			return fmt.Errorf("reference run %d produced CSV %s, run 0 produced %s", k, d[:12], b.ref[:12])
		}
		if _, err := b.prepare(filepath.Join(dir, "prep"), true); err != nil {
			return err
		}
		b.res.SetupSamples = append(b.res.SetupSamples, time.Since(start).Seconds())
	}
	b.res.Reference = b.ref
	if b.trace {
		fx, err := core.New(core.Options{})
		if err != nil {
			return err
		}
		b.base = fx.Registry()
		if b.spec.warm {
			if b.seedRecords, err = storedCells(fx, b.seedState); err != nil {
				return err
			}
		}
	}
	return nil
}

// storedCells loads a state file into fx and counts the cells its store
// holds.
func storedCells(fx *core.Fex, statePath string) (int, error) {
	f, err := os.Open(statePath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := fx.LoadState(f); err != nil {
		return 0, err
	}
	st, err := fx.ResultStore().Stats()
	return st.Records, err
}

// prepared is an invocation ready to be timed.
type prepared struct {
	dir, state string
	cluster    *clusterRun
}

// prepare makes the untimed preparation of one invocation in dir: a
// fresh state path, a copy of the seeded warm state, or, when cluster is
// set, a new cluster framework instance.
func (b *bench) prepare(dir string, cluster bool) (prepared, error) {
	if err := os.RemoveAll(dir); err != nil {
		return prepared{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return prepared{}, err
	}
	p := prepared{dir: dir}
	if b.spec.state {
		p.state = filepath.Join(dir, "fex.state")
	}
	if b.spec.warm {
		if err := copyFile(p.state, b.seedState); err != nil {
			return p, err
		}
	}
	if cluster && b.spec.cluster {
		cr, err := prepareCluster(b.spec, b.order)
		if err != nil {
			return p, err
		}
		p.cluster = cr
		// Start the in-process run from a collected heap returned to the
		// OS, so garbage of earlier invocations is neither collected on
		// its clock nor counted in its peak RSS.
		debug.FreeOSMemory()
	}
	return p, nil
}

// invoke prepares and times one untraced invocation and checks its
// output against the reference.
func (b *bench) invoke(ctx context.Context, i int) sample {
	p, err := b.prepare(filepath.Join(b.dir, fmt.Sprintf("inv%d", i)), true)
	if err != nil {
		return sample{Error: err.Error()}
	}
	var s sample
	var csv []byte
	if p.cluster != nil {
		s, csv, err = p.cluster.run(ctx)
	} else {
		out := filepath.Join(p.dir, "out")
		s, csv, err = runCLI(ctx, b.fexBin, b.spec.cliArgs(b.order, false, p.state, out), out)
	}
	if err == nil {
		s.StateMB = fileMB(p.state)
		err = b.check(s.Records, csv)
	}
	if err != nil {
		s.Error = err.Error()
	}
	s.Digest = digest(csv)
	if s.WallS > 0 {
		s.RecordsPer = float64(s.Records) / s.WallS
	}
	_ = os.RemoveAll(p.dir)
	return s
}

// invokeTraced runs one traced in-process invocation and checks its
// output against the reference.
func (b *bench) invokeTraced(ctx context.Context, i int) (map[string]float64, []span, error) {
	p, err := b.prepare(filepath.Join(b.dir, fmt.Sprintf("trace%d", i)), false)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(p.dir)
	runID := fmt.Sprintf("%s-s%d-t%d", b.spec.name, b.seed, i)
	csv, lm, spans, err := traced(ctx, b.spec, b.order, b.base, runID, p.state, b.seedRecords)
	if err != nil {
		return nil, nil, err
	}
	return lm, spans, b.check(b.spec.records, csv)
}

var errMismatch = errors.New("CSV differs from the serial reference")

// check fails an invocation that reported the wrong measurement count or
// whose CSV differs from the serial reference.
func (b *bench) check(records int, csv []byte) error {
	if records != b.spec.records {
		return fmt.Errorf("%d measurements, want %d", records, b.spec.records)
	}
	if digest(csv) != b.ref {
		return errMismatch
	}
	return nil
}

// measure makes timed invocations until the measuring time is spent (and
// at least minSamples of them), stopping early when another invocation
// would not finish before hardStop. In a traced run each untraced
// invocation is followed by a traced one.
func (b *bench) measure(ctx context.Context, seconds float64, hardStop time.Time) {
	start := time.Now()
	var longest time.Duration
	for i := 0; i < minSamples || time.Since(start).Seconds() < seconds; i++ {
		if i > 0 && time.Until(hardStop) < 2*longest {
			return
		}
		t0 := time.Now()
		b.res.Samples = append(b.res.Samples, b.invoke(ctx, i))
		if b.trace {
			lm, spans, err := b.invokeTraced(ctx, i)
			ts := tracedSample{Layers: lm, Spans: spans}
			if err != nil {
				ts.Error = err.Error()
			}
			b.res.Traced = append(b.res.Traced, ts)
		}
		longest = max(longest, time.Since(t0))
	}
}

// metrics counts the run's attempted and failed invocations and reduces
// its samples to the reported metrics: medians of the successful
// invocations for the end-to-end set (peak RSS excepted), medians of the
// traced invocations for the per-layer set.
func (b *bench) metrics() {
	r := b.res
	for _, s := range r.Samples {
		r.Attempted++
		if s.Error != "" {
			r.Failed++
		}
	}
	for _, t := range r.Traced {
		r.Attempted++
		if t.Error != "" {
			r.Failed++
		}
	}
	series := r.series()
	r.Summary = map[string]summary{}
	for name, xs := range series {
		r.Summary[name] = summarize(xs)
	}
	set := endToEnd
	if r.Trace {
		set = perLayer
	}
	r.Metrics = map[string]value{}
	for _, m := range set {
		r.Metrics[m.name] = value{Value: zeroNaN(median(series[m.name])), Unit: m.unit}
	}
	if !r.Trace {
		// A modeled invocation peaks at one of a few heap sizes, depending
		// on GC timing; the median of a run flips between them, the mean
		// moves smoothly with their mix.
		r.Metrics["peak_rss_mb"] = value{Value: zeroNaN(mean(series["peak_rss_mb"])), Unit: "MB"}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// series is every metric's raw sample in a run, by name: one value per
// passing invocation (per set-up for setup_s, per traced invocation for
// the per-layer set), and a single value for the ratios of the whole run.
// Attempted and Failed must already be counted.
func (r *result) series() map[string][]float64 {
	ok := okSamples(r.Samples)
	col := func(f func(sample) float64) []float64 {
		var xs []float64
		for _, s := range ok {
			xs = append(xs, f(s))
		}
		return xs
	}
	series := map[string][]float64{
		"wall_s":        col(func(s sample) float64 { return s.WallS }),
		"records_per_s": col(func(s sample) float64 { return s.RecordsPer }),
		"cpu_s":         col(func(s sample) float64 { return s.CPUS }),
		"peak_rss_mb":   col(func(s sample) float64 { return s.PeakRSSMB }),
		"state_mb":      col(func(s sample) float64 { return s.StateMB }),
		"setup_s":       r.SetupSamples,
		"ok_ratio":      {float64(r.Attempted-r.Failed) / float64(max(r.Attempted, 1))},
	}
	if r.Trace {
		for _, m := range perLayer {
			var xs []float64
			for _, t := range r.Traced {
				if t.Error == "" {
					xs = append(xs, t.Layers[m.name])
				}
			}
			series[m.name] = xs
		}
		if wall := median(series["wall_s"]); wall > 0 {
			inv := median(series["invocation.s"])
			series["trace.overhead_ratio"] = []float64{inv/wall - 1}
		}
	}
	return series
}

func okSamples(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.Error == "" {
			out = append(out, s)
		}
	}
	return out
}
