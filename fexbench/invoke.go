package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"fex/internal/core"
	"fex/internal/remote"
	"fex/internal/workload"
)

// sample is one timed invocation as a user sees it.
type sample struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	StateMB    float64 `json:"state_mb"`
	Records    int     `json:"records"`
	Digest     string  `json:"csv_sha256"`
	Error      string  `json:"error,omitempty"`
	RecordsPer float64 `json:"records_per_s"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var measurementsLine = regexp.MustCompile(`(?m)^experiment splash: (\d+) measurements$`)

// runCLI runs one fex CLI invocation and reads back the exported CSV.
// Wall time covers the whole process; CPU time and peak RSS come from
// the child's rusage.
func runCLI(ctx context.Context, fexBin string, args []string, outDir string) (sample, []byte, error) {
	if err := os.RemoveAll(outDir); err != nil {
		return sample{}, nil, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, fexBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return sample{}, nil, fmt.Errorf("fex %v: %w: %s", args[:3], err, bytes.TrimSpace(stderr.Bytes()))
	}
	s := sample{WallS: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // ru_maxrss is KiB on Linux
	}
	m := measurementsLine.FindSubmatch(stdout.Bytes())
	if m == nil {
		return s, nil, fmt.Errorf("fex printed no measurement count")
	}
	s.Records, _ = strconv.Atoi(string(m[1]))
	csv, err := os.ReadFile(filepath.Join(outDir, "splash.csv"))
	if err != nil {
		return s, nil, err
	}
	return s, csv, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// clusterRun is one prepared cluster-skew invocation: the framework,
// its prerequisites and both hosts exist; only Run remains.
type clusterRun struct {
	fx  *core.Fex
	cfg core.Config
}

// newCluster creates the workload's in-process worker hosts.
func newCluster() (*remote.Cluster, error) {
	cluster := remote.NewCluster()
	for _, h := range clusterHosts {
		if _, err := cluster.Ensure(h); err != nil {
			return nil, err
		}
	}
	return cluster, nil
}

// slowDown adds slowHostLatency to every cell the host runs ("run-cell"
// is the command the cluster tier sends per cell).
func slowDown(cluster *remote.Cluster, host string) error {
	h, err := cluster.Host(host)
	if err != nil {
		return err
	}
	h.SetCommandLatency("run-cell", slowHostLatency)
	return nil
}

// prepareCluster builds a fresh framework over two in-process hosts, the
// seed-chosen one slowed.
func prepareCluster(s spec, o order) (*clusterRun, error) {
	cluster, err := newCluster()
	if err != nil {
		return nil, err
	}
	fx, err := core.New(core.Options{Cluster: cluster})
	if err != nil {
		return nil, err
	}
	cfg, err := s.config(o)
	if err != nil {
		return nil, err
	}
	cfg.Hosts = clusterHosts
	if err := fx.InstallPrerequisites(cfg.BuildTypes...); err != nil {
		return nil, err
	}
	if err := slowDown(cluster, o.SlowHost); err != nil {
		return nil, err
	}
	return &clusterRun{fx: fx, cfg: cfg}, nil
}

// config is the in-process equivalent of cliArgs' serial configuration.
func (s spec) config(o order) (core.Config, error) {
	in, err := workload.ParseSizeClass(s.input)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Experiment: "splash",
		BuildTypes: o.Types,
		Benchmarks: o.Benches,
		Threads:    s.threads,
		Reps:       s.reps,
		Input:      in,
		ModelTime:  true,
	}, nil
}

// run times Fex.Run alone. CPU time is this process's rusage delta;
// peak RSS is this process's peak resident set while Run ran, read from
// the kernel's high-water mark after resetting it.
func (c *clusterRun) run(ctx context.Context) (sample, []byte, error) {
	if err := resetPeakRSS(); err != nil {
		return sample{}, nil, err
	}
	var before, after syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &before)
	start := time.Now()
	report, err := c.fx.Run(ctx, c.cfg)
	wall := time.Since(start).Seconds()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &after)
	if err != nil {
		return sample{}, nil, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return sample{}, nil, err
	}
	csv, err := c.fx.ReadResult(report.CSVPath)
	if err != nil {
		return sample{}, nil, err
	}
	return sample{
		WallS:     wall,
		CPUS:      tvSeconds(after.Utime) - tvSeconds(before.Utime) + tvSeconds(after.Stime) - tvSeconds(before.Stime),
		PeakRSSMB: peak,
		Records:   report.Measurements,
	}, csv, nil
}

// resetPeakRSS sets this process's peak resident set (VmHWM) back to its
// current resident set (Linux 4.0 and later).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

var vmHWM = regexp.MustCompile(`(?m)^VmHWM:\s*(\d+) kB$`)

// peakRSSMB reads this process's peak resident set since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	m := vmHWM.FindSubmatch(status)
	if m == nil {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.Atoi(string(m[1]))
	return float64(kb) / 1024, err
}
