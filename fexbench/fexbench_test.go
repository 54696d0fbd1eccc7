package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"fex/internal/core"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.1, 1.2, 5.5}, 3.1, 1.2, 5.5},
		{[]float64{2, 9}, 5.5, 0.25, 10.75},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{10, 1, 7, 3, 8}, 7, 2, 9},
	}
	for _, c := range cases {
		if got := median(c.xs); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSeedPermutationIsDeterministic(t *testing.T) {
	for _, s := range specs {
		a, b := orderFor(s, 7), orderFor(s, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 gave %v then %v", s.name, a, b)
		}
		if !sameSet(a.Types, s.types) || !sameSet(a.Benches, splashBenches) {
			t.Errorf("%s: order %v is not a permutation of the workload's types and benchmarks", s.name, a)
		}
		if s.cluster != (a.SlowHost != "") {
			t.Errorf("%s: slow host %q", s.name, a.SlowHost)
		}
	}
	s, _ := lookupSpec("cluster-skew")
	distinct, slow := map[string]bool{}, map[string]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		o := orderFor(s, seed)
		distinct[strings.Join(o.Types, " ")+"|"+strings.Join(o.Benches, " ")] = true
		slow[o.SlowHost] = true
	}
	if len(distinct) < 15 || len(slow) != len(clusterHosts) {
		t.Errorf("20 seeds gave %d orders and slow hosts %v; want varied orders and every host", len(distinct), slow)
	}
}

func TestCLIArgsFollowTheOrder(t *testing.T) {
	s, _ := lookupSpec("modeled-warm")
	o := order{Types: []string{"gcc_asan", "clang_native"}, Benches: []string{"lu", "fft"}}
	got := strings.Join(s.cliArgs(o, false, "st", "out"), " ")
	want := "run -n splash -t gcc_asan clang_native -b lu fft -m 1 2 4 8 -r 500 -i test --modeled-time --state st -resume -o out"
	if got != want {
		t.Errorf("timed args\n got %s\nwant %s", got, want)
	}
	// The reference is serial and cold.
	got = strings.Join(s.cliArgs(o, true, "st", "out"), " ")
	want = "run -n splash -t gcc_asan clang_native -b lu fft -m 1 2 4 8 -r 500 -i test --modeled-time --state st -o out"
	if got != want {
		t.Errorf("reference args\n got %s\nwant %s", got, want)
	}
	k, _ := lookupSpec("kernels-jobs")
	if got := strings.Join(k.cliArgs(o, false, "", "out"), " "); got != "run -n splash -t gcc_asan clang_native -b lu fft -m 1 2 4 8 -r 3 -i small --modeled-time -jobs 2 -o out" {
		t.Errorf("kernels-jobs args: %s", got)
	}
}

func TestDigestMismatchCountsAsFailure(t *testing.T) {
	s, _ := lookupSpec("kernels-jobs")
	ref := []byte("suite,bench\nsplash,fft\n")
	b := &bench{spec: s, ref: digest(ref), res: &result{SetupSamples: []float64{1, 2, 3}}}
	if err := b.check(s.records, ref); err != nil {
		t.Fatalf("matching CSV rejected: %v", err)
	}
	if err := b.check(s.records, []byte("suite,bench\nsplash,lu\n")); !errors.Is(err, errMismatch) {
		t.Fatalf("differing CSV: err = %v, want errMismatch", err)
	}
	if err := b.check(s.records-1, ref); err == nil {
		t.Fatal("wrong measurement count accepted")
	}
	b.res.Samples = []sample{
		{WallS: 1, CPUS: 2, PeakRSSMB: 3, Records: s.records, RecordsPer: 288},
		{WallS: 9, PeakRSSMB: 90, Error: errMismatch.Error()},
		{WallS: 3, CPUS: 4, PeakRSSMB: 6, Records: s.records, RecordsPer: 96},
		{WallS: 2, CPUS: 3, PeakRSSMB: 3, Records: s.records, RecordsPer: 144},
	}
	b.metrics()
	r := b.res
	if r.Correct || r.Attempted != 4 || r.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 4 1", r.Correct, r.Attempted, r.Failed)
	}
	if got := r.Metrics["ok_ratio"].Value; got != 0.75 {
		t.Errorf("ok_ratio = %v, want 0.75", got)
	}
	// The failed invocation's time is not a sample.
	if got := r.Metrics["wall_s"].Value; got != 2 {
		t.Errorf("wall_s = %v, want the median of the passing invocations, 2", got)
	}
	if got := r.Metrics["peak_rss_mb"].Value; got != 4 {
		t.Errorf("peak_rss_mb = %v, want the mean of the passing invocations, 4", got)
	}
	if got := r.Metrics["setup_s"].Value; got != 2 {
		t.Errorf("setup_s = %v, want 2", got)
	}
	if len(r.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, want the %d end-to-end ones", len(r.Metrics), len(endToEnd))
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{Start: 10, End: 20}
	cases := []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []span{{Start: 11, End: 12}, {Start: 15, End: 18}}, 6},
		{"overlapping children count once", []span{{Start: 11, End: 14}, {Start: 12, End: 16}, {Start: 13, End: 15}}, 5},
		{"nested", []span{{Start: 11, End: 19}, {Start: 12, End: 13}}, 2},
		{"clipped to the parent", []span{{Start: 5, End: 12}, {Start: 19, End: 25}, {Start: 30, End: 40}}, 7},
		{"fully covered", []span{{Start: 0, End: 30}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder("r1")
	root := rec.begin("invocation", 0)
	child, err := rec.time("new", root, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	rec.end(root)
	got := rec.all()
	if len(got) != 2 || child.Parent != root || got[1].Run != "r1" {
		t.Fatalf("spans %+v", got)
	}
	if got[0].End < got[1].End || got[0].Start > got[1].Start {
		t.Errorf("root %+v does not enclose child %+v", got[0], got[1])
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with what the benchmark reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := lookupSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestCompareFlagsBrokenBounds(t *testing.T) {
	run := func(wall, rss float64) *result {
		return &result{Workload: "modeled-cold", Metrics: map[string]value{
			"wall_s": {Value: wall, Unit: "s"}, "peak_rss_mb": {Value: rss, Unit: "MB"},
		}}
	}
	bounds := map[string]benchBound{
		"wall_s":      {Name: "wall_s", Better: "lower", Bound: 0.1},
		"peak_rss_mb": {Name: "peak_rss_mb", Better: "lower", Bound: 0.1},
	}
	steady := side{"modeled-cold": {run(1.00, 300), run(1.01, 301), run(0.99, 299), run(1.00, 300)}}
	var out strings.Builder
	if compare(&out, steady, steady, bounds) {
		t.Errorf("identical steady sides broke a bound:\n%s", out.String())
	}
	slower := side{"modeled-cold": {run(1.20, 300), run(1.21, 301), run(1.19, 299), run(1.20, 300)}}
	out.Reset()
	if !compare(&out, steady, slower, bounds) || !strings.Contains(out.String(), "WORSE than bound") {
		t.Errorf("a 20%% slower wall time passed a 10%% bound:\n%s", out.String())
	}
	noisy := side{"modeled-cold": {run(0.7, 300), run(1.3, 301), run(0.8, 299), run(1.2, 300)}}
	out.Reset()
	if !compare(&out, steady, noisy, bounds) || !strings.Contains(out.String(), "SPREAD over bound") {
		t.Errorf("a spread far over the bound passed:\n%s", out.String())
	}
	// Set-up time is held to its bound like every other metric.
	setup := func(xs ...float64) *result {
		return &result{Workload: "modeled-cold", SetupSamples: xs, Metrics: map[string]value{"setup_s": {Value: median(xs), Unit: "s"}}}
	}
	bounds["setup_s"] = benchBound{Name: "setup_s", Better: "lower", Bound: 0.1}
	out.Reset()
	if !compare(&out, side{"modeled-cold": {setup(1, 1, 1)}}, side{"modeled-cold": {setup(0.6, 1, 1.4)}}, bounds) ||
		!strings.Contains(out.String(), "SPREAD over bound") {
		t.Errorf("a set-up spread far over the bound passed:\n%s", out.String())
	}
}

func TestCompareNeedsTheBenchmarkFile(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []string{"a", "b"} {
		r := &result{Workload: "modeled-cold", Metrics: map[string]value{"wall_s": {Value: 1, Unit: "s"}}}
		if err := r.write(dir + "/" + w + ".json"); err != nil {
			t.Fatal(err)
		}
	}
	if code, err := compareMain([]string{"-bench", dir + "/missing.json", dir + "/a.json", dir + "/b.json"}); code != 2 || err == nil {
		t.Errorf("missing benchmark file: code %d, err %v; want 2 and an error", code, err)
	}
	if err := os.WriteFile(dir+"/empty.json", []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := compareMain([]string{"-bench", dir + "/empty.json", dir + "/a.json", dir + "/b.json"}); code != 2 || err == nil {
		t.Errorf("benchmark file without bounds: code %d, err %v; want 2 and an error", code, err)
	}
	if code, err := compareMain([]string{"-bench", "../BENCHMARK.json", dir + "/a.json", dir + "/b.json"}); code != 0 || err != nil {
		t.Errorf("equal results: code %d, err %v; want 0", code, err)
	}
}

func TestSingleRunValuesAreItsRawSamples(t *testing.T) {
	r := &result{
		SetupSamples: []float64{1, 2, 3},
		Samples:      []sample{{WallS: 1, RecordsPer: 10}, {WallS: 5, Error: "x"}, {WallS: 2, RecordsPer: 20}},
		Attempted:    3, Failed: 1,
	}
	if got := values([]*result{r}, "wall_s"); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Errorf("wall_s values %v, want the passing invocations' 1 2", got)
	}
	if got := values([]*result{r}, "setup_s"); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("setup_s values %v, want every set-up", got)
	}
	if got := values([]*result{r}, "ok_ratio"); len(got) != 1 || math.Abs(got[0]-2.0/3) > 1e-12 {
		t.Errorf("ok_ratio values %v, want 2/3", got)
	}
}

// TestTracedRunMatchesUntraced runs a small configuration through the
// traced in-process path and a plain Fex.Run: the CSVs must be
// identical, and the per-layer numbers must have the known shape.
func TestTracedRunMatchesUntraced(t *testing.T) {
	base, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := order{Types: []string{"gcc_native"}, Benches: []string{"fft", "lu"}, SlowHost: "w2"}
	for _, s := range []spec{
		{name: "small-serial", types: o.Types, threads: []int{1, 2}, reps: 2, input: "test", state: true, records: 8},
		{name: "small-cluster", types: o.Types, threads: []int{1, 2}, reps: 2, input: "test", cluster: true, records: 8},
	} {
		t.Run(s.name, func(t *testing.T) {
			cfg, err := s.config(o)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.New(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := plain.InstallPrerequisites(cfg.BuildTypes...); err != nil {
				t.Fatal(err)
			}
			report, err := plain.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.ReadResult(report.CSVPath)
			if err != nil {
				t.Fatal(err)
			}
			state := ""
			if s.state {
				state = t.TempDir() + "/fex.state"
			}
			csv, lm, spans, err := traced(context.Background(), s, o, base.Registry(), "r1", state, 0)
			if err != nil {
				t.Fatal(err)
			}
			if string(csv) != string(want) {
				t.Fatalf("traced CSV differs from Fex.Run's:\n%s\nwant\n%s", csv, want)
			}
			if lm["kernel.calls"] != 4 || lm["plan.executed"] != 2 || lm["store.records_added"] != 2 {
				t.Errorf("kernel.calls %v plan.executed %v store.records_added %v, want 4 2 2",
					lm["kernel.calls"], lm["plan.executed"], lm["store.records_added"])
			}
			if got := lm["memo.hit_ratio"]; math.Abs(got-0.5) > 1e-12 {
				t.Errorf("memo.hit_ratio = %v, want 0.5 (4 kernels for 8 repetitions)", got)
			}
			if s.state != (lm["state.save_s"] > 0 && lm["state.file_mb"] > 0) {
				t.Errorf("state.save_s %v state.file_mb %v with state=%v", lm["state.save_s"], lm["state.file_mb"], s.state)
			}
			if s.cluster != (lm["hosts.cells_max"] > 0) {
				t.Errorf("hosts.cells_max %v with cluster=%v", lm["hosts.cells_max"], s.cluster)
			}
			if !s.cluster && lm["sink.early_ratio"] != 1 {
				t.Errorf("serial sink.early_ratio = %v, want 1", lm["sink.early_ratio"])
			}
			byID := map[int]span{}
			for _, sp := range spans {
				byID[sp.ID] = sp
			}
			for _, sp := range spans {
				if sp.Run != "r1" || sp.End < sp.Start {
					t.Errorf("bad span %+v", sp)
				}
				if sp.Name == "kernel" && byID[sp.Parent].Name != "cells" {
					t.Errorf("kernel span under %q, want cells", byID[sp.Parent].Name)
				}
			}
		})
	}
}
