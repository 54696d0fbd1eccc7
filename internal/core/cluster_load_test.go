package core

import (
	"context"
	"testing"
	"time"

	fexclock "fex/internal/clock"
	"fex/internal/remote"
	"fex/internal/runlog"
	"fex/internal/workload"
)

// This file proves the load-facing half of the cluster scheduler: the
// shared pull queue steering cells away from a slow host, the
// speculation median, wake and scan-order fixes, and the
// cross-experiment build-artifact sharing that rides on the run's config
// hash. The reactive half (probation, deadlines, eviction) lives in
// cluster_fault_test.go.

// TestMedianDuration pins the even-count median: the speculation
// threshold must average the two middle elements, not take the upper one
// (which biased the straggler cutoff high on even sample counts).
func TestMedianDuration(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tests := []struct {
		name string
		durs []time.Duration
		want time.Duration
	}{
		{"single", []time.Duration{ms(10)}, ms(10)},
		{"odd", []time.Duration{ms(1), ms(2), ms(9)}, ms(2)},
		{"even_pair", []time.Duration{ms(10), ms(20)}, ms(15)},
		{"even_four", []time.Duration{ms(1), ms(2), ms(4), ms(100)}, ms(3)},
		{"even_skewed", []time.Duration{ms(1), ms(1), ms(1), ms(1), ms(1), ms(99)}, ms(1)},
		{"odd_five", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5)}, ms(3)},
		{"even_odd_sum", []time.Duration{ms(1), ms(2)}, 1500 * time.Microsecond},
	}
	for _, tc := range tests {
		if got := medianDuration(tc.durs); got != tc.want {
			t.Errorf("%s: medianDuration(%v) = %v, want %v", tc.name, tc.durs, got, tc.want)
		}
	}
}

// TestSpecTimerArmsWithoutIdleWorkers is the regression test for the
// speculation wake gap: the detector used to re-arm its wake timer only
// when an idle worker existed at scan time, so a straggler crossing its
// threshold while every worker was busy produced no wakeup. The re-arm
// is now unconditional — on a virtual clock, a pending under-threshold
// straggler with an empty idle pool must still register exactly one
// timer, and advancing past the threshold must deliver the wake.
func TestSpecTimerArmsWithoutIdleWorkers(t *testing.T) {
	vclk := fexclock.NewVirtual(fixedNow())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &clusterSched{
		rc:    &RunContext{Config: Config{}},
		p:     &runPlan{cells: make([]cell, 1), shards: make([]*runlog.Shard, 1)},
		cells: make([]cell, 1),
		clk:   vclk,
		ctx:   ctx,
		// Three completed cells of zero modeled duration: the threshold is
		// the specMinElapsed floor. One non-speculative placement is in
		// flight, under threshold, and no worker is idle.
		durations:  []time.Duration{0, 0, 0},
		placements: map[int][]*placement{0: {{cell: 0, worker: 0, start: vclk.Now()}}},
		specWake:   make(chan struct{}, 1),
	}
	s.maybeSpeculate()
	if got := vclk.Pending(); got != 1 {
		t.Fatalf("wake timer registrations with empty idle pool = %d, want 1 (unconditional re-arm)", got)
	}

	vclk.Advance(specMinElapsed)
	select {
	case <-s.specWake:
	case <-time.After(5 * time.Second):
		t.Fatal("speculation wake not delivered after advancing past the threshold")
	}
	s.stopSpecTimer()
}

// TestBackToPoolWakesSpeculation pins the second half of the fix: a
// worker returning to the idle pool nudges the straggler detector (the
// freed worker is exactly the capacity speculation was waiting for).
func TestBackToPoolWakesSpeculation(t *testing.T) {
	s := &clusterSched{
		state:    []*hostState{{phase: hostHealthy}, {phase: hostProbation}},
		specWake: make(chan struct{}, 1),
	}
	s.backToPool(0)
	select {
	case <-s.specWake:
	default:
		t.Fatal("healthy worker returning to the pool did not wake the straggler detector")
	}
	if len(s.idle) != 1 || s.idle[0] != 0 {
		t.Fatalf("idle pool = %v, want [0]", s.idle)
	}
	// A non-healthy worker neither pools nor wakes.
	s.backToPool(1)
	select {
	case <-s.specWake:
		t.Fatal("probation worker woke the straggler detector")
	default:
	}
	if len(s.idle) != 1 {
		t.Fatalf("probation worker entered the idle pool: %v", s.idle)
	}
}

// TestSpeculationPicksEarliestStraggler pins the straggler scan order:
// with two cells past the speculation threshold and one idle worker
// eligible for both, the duplicate goes to the lower cell index on every
// pass. The detector used to range over its placements map, so the pick
// (and its -v line) was random.
func TestSpeculationPicksEarliestStraggler(t *testing.T) {
	cluster := remote.NewCluster()
	var workers []*clusterWorker
	for _, name := range []string{"w1", "w2", "w3"} {
		h, err := cluster.Ensure(name)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, &clusterWorker{host: h})
	}
	fft, err := newSchedFex(t).Registry().Lookup("splash", "fft")
	if err != nil {
		t.Fatal(err)
	}
	cells := []cell{{buildType: "gcc_native", workload: fft}, {buildType: "clang_native", workload: fft}}
	for trial := 0; trial < 50; trial++ {
		vclk := fexclock.NewVirtual(fixedNow())
		ctx, cancel := context.WithCancel(context.Background())
		start := vclk.Now()
		s := &clusterSched{
			rc:      &RunContext{Config: Config{}},
			vrc:     &RunContext{},
			p:       &runPlan{cells: cells, shards: make([]*runlog.Shard, len(cells))},
			cells:   cells,
			clk:     vclk,
			ctx:     ctx,
			cancel:  cancel,
			workers: workers,
			state:   []*hostState{{phase: hostHealthy}, {phase: hostHealthy}, {phase: hostHealthy}},
			// w1 runs cell 0 and w2 runs cell 1; only w3 is idle, and it
			// has tried neither cell.
			idle:      []int{2},
			attempted: []map[string]bool{{"w1": true}, {"w2": true}},
			placements: map[int][]*placement{
				0: {{cell: 0, worker: 0, start: start}},
				1: {{cell: 1, worker: 1, start: start}},
			},
			durations: []time.Duration{0, 0, 0},
			results:   make(chan clusterResult, 1),
			specWake:  make(chan struct{}, 1),
		}
		vclk.Advance(specMinElapsed) // both cells are now due
		s.maybeSpeculate()
		if len(s.placements[0]) != 2 || len(s.placements[1]) != 1 {
			t.Fatalf("trial %d: speculated %d/%d placements on cells 0/1, want the duplicate on cell 0",
				trial, len(s.placements[0]), len(s.placements[1]))
		}
		cancel()
		<-s.results // the duplicate's host has no run-cell command; it fails fast
		s.stopSpecTimer()
	}
}

// TestClusterSlowHostRunsFewerCells proves the shared pull queue steers
// work away from a chronically slow host: while it runs one cell, the
// fast host keeps pulling the rest. The slow host completes fewer cells
// than the fast one, and the stored bytes stay byte-identical to the
// serial reference.
func TestClusterSlowHostRunsFewerCells(t *testing.T) {
	cfg := Config{
		Experiment:  "cluster_slow_host",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu", "radix", "ocean"},
		Input:       workload.SizeTest,
		Verbose:     true,
		Hosts:       []string{"w1", "w2"},
		NoSpeculate: true, // isolate placement from the straggler detector
	}
	wantLog, wantCSV := serialReference(t, "cluster_slow_host", deterministicHooks(0), cfg)

	cluster := remote.NewCluster()
	for _, h := range []string{"w1", "w2"} {
		if _, err := cluster.Ensure(h); err != nil {
			t.Fatal(err)
		}
	}
	buf := &faultLog{}
	fx, err := New(Options{Now: fixedNow, Cluster: cluster, Verbose: buf})
	if err != nil {
		t.Fatal(err)
	}
	registerSchedExperiment(t, fx, "cluster_slow_host", deterministicHooks(0))
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	// Big skew: each w1 cell takes ~30ms while w2 finishes one in well
	// under a millisecond, so w2 drains the queue while w1 is busy.
	w1.SetCommandLatency(cmdRunCell, 30*time.Millisecond)

	capture := &hostsCapture{}
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: capture.hook})
	if err != nil {
		t.Fatal(err)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "slow host")

	w1st, w2st := capture.find(t, "w1"), capture.find(t, "w2")
	if w2st.Cells <= w1st.Cells {
		t.Errorf("slow host completed %d cells, fast host %d — the fast host should pull more of the queue\nverbose:\n%s",
			w1st.Cells, w2st.Cells, buf.String())
	}
	if w1st.Cells+w2st.Cells != 8 {
		t.Errorf("cells completed = %d + %d, want 8 total", w1st.Cells, w2st.Cells)
	}
}

// TestBuildSharedAcrossExperiments proves cross-experiment artifact
// sharing: within one framework instance, the first run of a build
// configuration compiles its artifacts and later runs under the same
// config hash reuse them — zero new compilations, cache intact. A mode
// change that alters the hash (-d) forces the classic clean rebuild.
func TestBuildSharedAcrossExperiments(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	cfg := Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
		ModelTime:  true,
	}
	if _, err := fx.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	compilesCold := fx.BuildSystem().Compiles()
	cachedCold := fx.BuildSystem().CachedArtifacts()
	if compilesCold == 0 || cachedCold == 0 {
		t.Fatalf("cold run compiled %d artifacts (%d cached), want > 0", compilesCold, cachedCold)
	}

	// Second invocation, same modes, different benchmark mix: the shared
	// artifacts serve the overlap and only the new benchmark compiles.
	second := cfg
	second.Benchmarks = []string{"fft", "lu", "radix"}
	if _, err := fx.Run(context.Background(), second); err != nil {
		t.Fatal(err)
	}
	delta := fx.BuildSystem().Compiles() - compilesCold
	if delta == 0 {
		t.Error("second run compiled nothing — radix was never built")
	}
	if got := fx.BuildSystem().CachedArtifacts(); got <= cachedCold {
		t.Errorf("artifact cache shrank across runs: %d -> %d (CleanBuild ran despite matching config hash)", cachedCold, got)
	}

	// Identical re-run: fully warm, zero compilations.
	before := fx.BuildSystem().Compiles()
	if _, err := fx.Run(context.Background(), second); err != nil {
		t.Fatal(err)
	}
	if n := fx.BuildSystem().Compiles() - before; n != 0 {
		t.Errorf("warm identical run compiled %d artifacts, want 0 (shared)", n)
	}

	// A hash change (-d) must rebuild clean, not reuse release artifacts.
	debugCfg := second
	debugCfg.Debug = true
	before = fx.BuildSystem().Compiles()
	if _, err := fx.Run(context.Background(), debugCfg); err != nil {
		t.Fatal(err)
	}
	if n := fx.BuildSystem().Compiles() - before; n == 0 {
		t.Error("debug run compiled nothing — stale release artifacts were reused across a config-hash change")
	}
}
