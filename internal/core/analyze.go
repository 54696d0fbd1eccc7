package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"fex/internal/runlog"
	"fex/internal/stats"
)

// This file implements the statistical analysis the paper lists as future
// work in §VI: "The framework provides no statistical analysis
// functionality (except basic statistics such as standard deviation). We
// plan to integrate statistical numpy/scipy Python packages in the
// framework to allow for advanced statistical methods and hypothesis
// testing." Here, hypothesis testing runs natively over the per-repetition
// measurements stored in an experiment's run log.

// Comparison is the statistical verdict for one benchmark between two
// build types.
type Comparison struct {
	Benchmark string `json:"benchmark"`
	// A and B summarize the per-repetition samples of each build type.
	A stats.Summary `json:"a"`
	B stats.Summary `json:"b"`
	// Ratio is mean(B)/mean(A).
	Ratio float64 `json:"ratio"`
	// ACI and BCI are the per-side confidence intervals for the mean
	// (Student-t, at the level the analysis ran at); nil when a side has
	// fewer than two repetitions.
	ACI *stats.Interval `json:"a_ci,omitempty"`
	BCI *stats.Interval `json:"b_ci,omitempty"`
	// Test is Welch's two-sample t-test over the repetition samples; it
	// is nil when either side has fewer than two repetitions.
	Test *stats.TTestResult `json:"test,omitempty"`
}

// Significant reports whether the difference is significant at alpha.
// Two rules must agree, making the verdict conservative:
//
//  1. Welch's t-test rejects at alpha (p < alpha, strictly — p == alpha
//     is NOT significant);
//  2. when both per-side confidence intervals are available, they are
//     disjoint. The boundary is explicit: intervals that exactly touch
//     ([1,2] vs [2,3], or the degenerate zero-variance [5,5] vs [5,5])
//     OVERLAP and therefore do NOT count as significant — the shared
//     endpoint is a mean value both sides deem plausible, so touching
//     intervals are evidence compatible with equality.
//
// Without a t-test (fewer than two repetitions on a side) nothing is
// significant.
func (c Comparison) Significant(alpha float64) bool {
	if c.Test == nil || !c.Test.Significant(alpha) {
		return false
	}
	if c.ACI != nil && c.BCI != nil && c.ACI.Overlaps(*c.BCI) {
		return false
	}
	return true
}

// NewComparison builds the statistical comparison of two per-repetition
// sample sets: summaries, mean ratio (0 when the baseline mean is zero),
// and — when both sides have at least two observations — Welch's t-test
// plus per-side Student-t confidence intervals at the given level. The t
// statistic of a zero-variance exact difference is ±Inf; it is clamped to
// ±MaxFloat64 so comparisons stay JSON-encodable (JSON has no Inf).
// Analyze and the cross-run differential analyzer both build their
// comparisons here, so the two can never drift apart statistically.
func NewComparison(a, b []float64, level float64) (Comparison, error) {
	var c Comparison
	sa, err := stats.Summarize(a)
	if err != nil {
		return c, err
	}
	sb, err := stats.Summarize(b)
	if err != nil {
		return c, err
	}
	c.A, c.B = sa, sb
	if sa.Mean != 0 {
		c.Ratio = sb.Mean / sa.Mean
	}
	if len(a) >= 2 && len(b) >= 2 {
		res, err := stats.WelchTTest(a, b)
		if err != nil {
			return c, err
		}
		res.T = clampFinite(res.T)
		c.Test = &res
		aci, err := stats.ConfidenceInterval(a, level)
		if err != nil {
			return c, err
		}
		bci, err := stats.ConfidenceInterval(b, level)
		if err != nil {
			return c, err
		}
		c.ACI, c.BCI = &aci, &bci
	}
	return c, nil
}

// clampFinite maps ±Inf onto the largest finite float (see NewComparison).
func clampFinite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(x, -1) {
		return -math.MaxFloat64
	}
	return x
}

// AnalysisReport is the outcome of comparing two build types across an
// experiment's benchmarks.
type AnalysisReport struct {
	Experiment   string
	Metric       string
	TypeA, TypeB string
	Comparisons  []Comparison
	// MinReps is the smallest repetition count encountered; hypothesis
	// testing needs at least 2.
	MinReps int
}

// String renders the report as an aligned listing.
func (r AnalysisReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s of %s vs %s\n", r.Experiment, r.Metric, r.TypeB, r.TypeA)
	for _, c := range r.Comparisons {
		verdict := "n/a (need -r >= 2)"
		if c.Test != nil {
			if c.Significant(0.05) {
				verdict = fmt.Sprintf("significant (p=%.4g)", c.Test.P)
			} else {
				verdict = fmt.Sprintf("not significant (p=%.4g)", c.Test.P)
			}
		}
		fmt.Fprintf(&sb, "%-18s ratio=%.3f  %s\n", c.Benchmark, c.Ratio, verdict)
	}
	return sb.String()
}

// Analyze compares metric between two build types of a previously run
// experiment, benchmark by benchmark, using the per-repetition samples in
// the stored log (not the collected means). Samples are taken at the
// smallest thread count present.
// The default metric is live wall time ("wall_ns"): modeled counters are
// deterministic across repetitions (zero variance), so hypothesis testing
// is only informative for the live measurements.
func (fx *Fex) Analyze(experiment, metric, typeA, typeB string) (*AnalysisReport, error) {
	if metric == "" {
		metric = "wall_ns"
	}
	fsys, err := fx.ctr.FS()
	if err != nil {
		return nil, err
	}
	data, err := fsys.ReadFile(logPath(experiment))
	if err != nil {
		return nil, fmt.Errorf("analyze %s: no run log (run the experiment first): %w", experiment, err)
	}
	lg, err := runlog.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", experiment, err)
	}
	if len(lg.Measurements) == 0 {
		return nil, fmt.Errorf("analyze %s: log has no measurements", experiment)
	}

	minThreads := lg.Measurements[0].Threads
	for _, m := range lg.Measurements {
		if m.Threads < minThreads {
			minThreads = m.Threads
		}
	}
	samples := map[string]map[string][]float64{} // bench -> type -> values
	var benchOrder []string
	minReps := int(^uint(0) >> 1)
	for _, m := range lg.Measurements {
		if m.Threads != minThreads {
			continue
		}
		if m.BuildType != typeA && m.BuildType != typeB {
			continue
		}
		v, ok := m.Values.Get(metric)
		if !ok {
			return nil, fmt.Errorf("analyze %s: metric %q not in measurements (have %v)",
				experiment, metric, m.Values.Names())
		}
		byType, ok := samples[m.Benchmark]
		if !ok {
			byType = map[string][]float64{}
			samples[m.Benchmark] = byType
			benchOrder = append(benchOrder, m.Benchmark)
		}
		byType[m.BuildType] = append(byType[m.BuildType], v)
	}
	if len(benchOrder) == 0 {
		return nil, fmt.Errorf("analyze %s: no measurements for types %q/%q", experiment, typeA, typeB)
	}

	report := &AnalysisReport{
		Experiment: experiment, Metric: metric, TypeA: typeA, TypeB: typeB,
	}
	for _, bench := range benchOrder {
		a := samples[bench][typeA]
		bvals := samples[bench][typeB]
		if len(a) == 0 || len(bvals) == 0 {
			// A benchmark measured under only one of the two types — e.g.
			// skipped via SkipBenchmark() for a build type it does not
			// support — has nothing to compare; drop it from the report
			// instead of failing the whole analysis.
			continue
		}
		if len(a) < minReps {
			minReps = len(a)
		}
		if len(bvals) < minReps {
			minReps = len(bvals)
		}
		// The analysis runs at the conventional 95% interval level.
		cmp, err := NewComparison(a, bvals, 0.95)
		if err != nil {
			return nil, fmt.Errorf("analyze %s/%s: %w", experiment, bench, err)
		}
		cmp.Benchmark = bench
		report.Comparisons = append(report.Comparisons, cmp)
	}
	if len(report.Comparisons) == 0 {
		return nil, fmt.Errorf("analyze %s: no benchmark has measurements for both %q and %q",
			experiment, typeA, typeB)
	}
	report.MinReps = minReps
	return report, nil
}
