package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"fex/internal/core"
	"fex/internal/remote"
	"fex/internal/runlog"
	"fex/internal/workload"
)

// metric names one reported number.
type metric struct {
	name, unit, better string
}

// endToEnd are the numbers a user of fex sees, measured with tracing off.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"records_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer are the traced run's numbers, each the median over the run's
// traced invocations. A layer a workload does not exercise reads 0.
var perLayer = []metric{
	{"new.s", "s", "lower"},
	{"install.s", "s", "lower"},
	{"state.load_s", "s", "lower"},
	{"state.save_s", "s", "lower"},
	{"state.load_alloc_mb", "MB", "lower"},
	{"state.save_alloc_mb", "MB", "lower"},
	{"state.file_mb", "MB", "lower"},
	{"plan.s", "s", "lower"},
	{"plan.replayed", "count", "higher"},
	{"plan.deduped", "count", "higher"},
	{"plan.executed", "count", "lower"},
	{"cells.s", "s", "lower"},
	{"cells.self_s", "s", "lower"},
	{"cell.gap_p50_ms", "ms", "lower"},
	{"cell.gap_max_ms", "ms", "lower"},
	{"kernel.s", "s", "lower"},
	{"kernel.calls", "count", "lower"},
	{"memo.hit_ratio", "ratio", "higher"},
	{"build.compiles", "count", "lower"},
	{"build.builds", "count", "lower"},
	{"store.records_added", "count", "lower"},
	{"store.bytes", "bytes", "lower"},
	{"vfs.ops", "count", "lower"},
	{"finish.s", "s", "lower"},
	{"parse.s", "s", "lower"},
	{"collect.s", "s", "lower"},
	{"run.alloc_mb", "MB", "lower"},
	{"run.gc_cycles", "count", "lower"},
	{"sink.first_record_s", "s", "lower"},
	{"sink.early_ratio", "ratio", "higher"},
	{"hosts.cells_max", "count", "lower"},
	{"hosts.cells_min", "count", "higher"},
	{"hosts.steals", "count", "higher"},
	{"hosts.failovers", "count", "lower"},
	{"spec.waste_ratio", "ratio", "lower"},
	{"run.s", "s", "lower"},
	{"invocation.s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// memMark snapshots the heap counters a layer's allocation is read from.
type memMark struct {
	alloc uint64
	gcs   uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

func (m memMark) since() (allocMB float64, gcs float64) {
	now := markMem()
	return float64(now.alloc-m.alloc) / (1 << 20), float64(now.gcs - m.gcs)
}

// traced runs one invocation in-process, mirroring `fex run` step by
// step — core.New, LoadState, InstallPrerequisites, RunWithHooks with a
// progress observer and a log sink, SaveState — and then times Collect
// and runlog.Parse on the stored log. It returns the invocation's CSV,
// its per-layer numbers and its spans. statePath is the --state file
// (empty for stateless workloads) and seedRecords the number of cells
// stored in it; base is the shipped workload registry, wrapped so kernel
// calls are timed.
func traced(ctx context.Context, s spec, o order, base *workload.Registry, runID, statePath string, seedRecords int) ([]byte, map[string]float64, []span, error) {
	rec := newRecorder(runID)
	reg, err := tracedRegistry(base, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	lm := map[string]float64{}
	inv := rec.begin("invocation", 0)

	var cluster *remote.Cluster
	if s.cluster {
		if cluster, err = newCluster(); err != nil {
			return nil, nil, nil, err
		}
	}
	var fx *core.Fex
	sp, err := rec.time("new", inv, func() (err error) {
		fx, err = core.New(core.Options{Registry: reg, Cluster: cluster})
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	lm["new.s"] = sp.dur()

	if statePath != "" {
		if f, err := os.Open(statePath); err == nil {
			mark := markMem()
			sp, err := rec.time("state.load", inv, func() error { return fx.LoadState(f) })
			f.Close()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("load state: %w", err)
			}
			lm["state.load_s"] = sp.dur()
			lm["state.load_alloc_mb"], _ = mark.since()
		}
	}

	cfg, err := s.config(o)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Jobs = s.jobs
	cfg.Resume = s.warm
	if s.cluster {
		cfg.Hosts = clusterHosts
	}
	sp, err = rec.time("install", inv, func() error { return fx.InstallPrerequisites(cfg.BuildTypes...) })
	if err != nil {
		return nil, nil, nil, err
	}
	lm["install.s"] = sp.dur()
	if s.cluster {
		if err := slowDown(cluster, o.SlowHost); err != nil {
			return nil, nil, nil, err
		}
	}

	fsys, err := fx.Container().FS()
	if err != nil {
		return nil, nil, nil, err
	}
	// The store is only read after the run: reading it before would load
	// its index outside the timed run.
	compiles, builds, ops := fx.BuildSystem().Compiles(), fx.BuildSystem().Builds(), fsys.Ops()
	obs := &observer{}
	mark := markMem()
	runStart := time.Now()
	report, err := fx.RunWithHooks(ctx, cfg, core.RunHooks{Progress: obs.progress, LogSink: obs})
	runEnd := time.Now()
	if err != nil {
		return nil, nil, nil, err
	}
	lm["run.alloc_mb"], lm["run.gc_cycles"] = mark.since()
	lm["vfs.ops"] = float64(fsys.Ops() - ops)
	lm["build.compiles"] = float64(fx.BuildSystem().Compiles() - compiles)
	lm["build.builds"] = float64(fx.BuildSystem().Builds() - builds)
	storeAfter, err := fx.ResultStore().Stats()
	if err != nil {
		return nil, nil, nil, err
	}
	lm["store.records_added"] = float64(storeAfter.Records - seedRecords)
	lm["store.bytes"] = float64(storeAfter.Bytes)

	runSpan := rec.add("run", inv, runStart, runEnd)
	lm["run.s"] = runEnd.Sub(runStart).Seconds()
	if err := layerPhases(rec, runSpan, obs, runStart, runEnd, report.Measurements, lm); err != nil {
		return nil, nil, nil, err
	}

	if statePath != "" {
		mark := markMem()
		sp, err := rec.time("state.save", inv, func() error {
			f, err := os.Create(statePath)
			if err != nil {
				return err
			}
			if err := fx.SaveState(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("save state: %w", err)
		}
		lm["state.save_s"] = sp.dur()
		lm["state.save_alloc_mb"], _ = mark.since()
		lm["state.file_mb"] = fileMB(statePath)
	}
	rec.end(inv)
	// The CLI's invocation ends with the state save; for the in-process
	// cluster workload the untraced wall time is Run alone.
	lm["invocation.s"] = rec.get(inv).dur()
	if s.cluster {
		lm["invocation.s"] = lm["run.s"]
	}

	sp, err = rec.time("collect", 0, func() error { _, err := fx.Collect(cfg.Experiment); return err })
	if err != nil {
		return nil, nil, nil, err
	}
	lm["collect.s"] = sp.dur()
	logText, err := fx.ReadResult(report.LogPath)
	if err != nil {
		return nil, nil, nil, err
	}
	sp, err = rec.time("parse", 0, func() error { _, err := runlog.Parse(bytes.NewReader(logText)); return err })
	if err != nil {
		return nil, nil, nil, err
	}
	lm["parse.s"] = sp.dur()

	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		return nil, nil, nil, err
	}
	return csv, lm, rec.all(), nil
}

// layerPhases splits the run span at the plan event and the last settled
// cell into plan, cells and finish spans, hangs every kernel span under
// the phase it started in, and derives the planner, executor, kernel,
// sink and cluster numbers.
func layerPhases(rec *recorder, run int, obs *observer, runStart, runEnd time.Time, measurements int, lm map[string]float64) error {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.planAt.IsZero() {
		return fmt.Errorf("run emitted no plan event")
	}
	last := obs.lastCell()
	phases := map[string]int{
		"plan":   rec.add("plan", run, runStart, obs.planAt),
		"cells":  rec.add("cells", run, obs.planAt, last),
		"finish": rec.add("finish", run, last, runEnd),
	}
	for _, name := range []string{"plan", "cells", "finish"} {
		lm[name+".s"] = rec.get(phases[name]).dur()
	}
	kernels := rec.named("kernel")
	var kernelS float64
	for _, k := range kernels {
		kernelS += k.dur()
		parent := phases["finish"]
		if k.Start < rec.at(obs.planAt) {
			parent = phases["plan"]
		} else if k.Start <= rec.at(last) {
			parent = phases["cells"]
		}
		rec.setParent(k.ID, parent)
	}
	lm["kernel.s"] = kernelS
	lm["kernel.calls"] = float64(len(kernels))
	lm["cells.self_s"] = selfTime(rec.get(phases["cells"]), rec.children(phases["cells"]))

	ev := obs.plan
	executed := ev.Total - ev.Replayed - ev.Deduped
	lm["plan.replayed"], lm["plan.deduped"], lm["plan.executed"] = float64(ev.Replayed), float64(ev.Deduped), float64(executed)
	// Every cell of these workloads has the same repetition count, so the
	// executed cells' share of the records is the number of measured
	// repetitions, each a kernel execution or a memo hit.
	if ev.Total > 0 && executed > 0 {
		executions := float64(measurements) * float64(executed) / float64(ev.Total)
		lm["memo.hit_ratio"] = 1 - float64(len(kernels))/executions
	}

	gaps := obs.cellGaps()
	lm["cell.gap_p50_ms"] = zeroNaN(median(gaps))
	if len(gaps) > 0 {
		lm["cell.gap_max_ms"] = sorted(gaps)[len(gaps)-1]
	}
	lm["sink.first_record_s"], lm["sink.early_ratio"] = obs.sinkStats(runStart)

	if len(obs.hosts) > 0 {
		cmin, cmax := obs.hosts[0].Cells, obs.hosts[0].Cells
		var steals, failovers, losses int
		for _, h := range obs.hosts {
			cmin, cmax = min(cmin, h.Cells), max(cmax, h.Cells)
			steals += h.Steals
			failovers += h.Failovers
			losses += h.SpecLosses
		}
		lm["hosts.cells_max"], lm["hosts.cells_min"] = float64(cmax), float64(cmin)
		lm["hosts.steals"], lm["hosts.failovers"] = float64(steals), float64(failovers)
		if ev.Total > 0 {
			lm["spec.waste_ratio"] = float64(losses) / float64(ev.Total)
		}
	}
	return nil
}

// zeroNaN reports an empty sample's NaN median as 0.
func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
