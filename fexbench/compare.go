package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"fex/internal/stats"
)

// benchBound is one end-to-end metric's entry in BENCHMARK.json.
type benchBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchBound `json:"end_to_end"`
}

// side is one set of runs: every result file of a path, grouped by
// workload (traced workloads get a "+trace" suffix).
type side map[string][]*result

func loadSide(path string) (side, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	s := side{}
	for _, f := range files {
		r, err := readResult(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := r.Workload
		if r.Trace {
			key += "+trace"
		}
		s[key] = append(s[key], r)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return s, nil
}

// welchAlpha is the significance level of compare's Welch test.
const welchAlpha = 0.05

// values is one metric's sample on one side: the reported value of each
// run when there are several runs (so the spread is across seeds, as the
// bounds are defined), otherwise the single run's raw samples.
func values(runs []*result, name string) []float64 {
	if len(runs) == 1 {
		return runs[0].series()[name]
	}
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func compareMain(argv []string) (int, error) {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fl.String("bench", "BENCHMARK.json", "benchmark definition with the end-to-end bounds")
	if err := fl.Parse(argv); err != nil {
		return 2, err
	}
	if fl.NArg() != 2 {
		return 2, fmt.Errorf("want two result paths (files or directories), got %d", fl.NArg())
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		return 2, err
	}
	a, err := loadSide(fl.Arg(0))
	if err != nil {
		return 2, err
	}
	b, err := loadSide(fl.Arg(1))
	if err != nil {
		return 2, err
	}
	if compare(os.Stdout, a, b, bounds) {
		return 1, nil
	}
	return 0, nil
}

// readBounds reads the end-to-end bounds of a benchmark definition. A
// file that is missing, unparsable or without bounds is an error: with
// no bounds compare could never fail.
func readBounds(path string) (map[string]benchBound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]benchBound{}
	for _, b := range bf.EndToEnd {
		bounds[b.Name] = b
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end bounds", path)
	}
	return bounds, nil
}

// compare prints, per workload and metric, both sides' medians,
// quartiles and spreads, the Welch test and 95% confidence intervals of
// the means from internal/stats, and a verdict against the metric's
// bound. It reports whether any bound was broken: a spread wider than
// the bound or a median worse by more than it.
func compare(w io.Writer, a, b side, bounds map[string]benchBound) bool {
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	broken := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tA median [q1, q3]\tA spread\tB median [q1, q3]\tB spread\tchange\twelch p\tA 95% CI\tB 95% CI\tverdict")
	for _, k := range keys {
		names := metricNames(a[k], b[k])
		for _, name := range names {
			xa, xb := values(a[k], name), values(b[k], name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			}
			p, verdict := "-", "same"
			if t, err := stats.WelchTTest(xa, xb); err == nil {
				p = fmt.Sprintf("%.3g", t.P)
				if t.Significant(welchAlpha) {
					verdict = "differs"
				}
			}
			if bd, ok := bounds[name]; ok && bd.Bound > 0 {
				worse := change
				if bd.Better == "higher" {
					worse = -change
				}
				switch {
				case worse > bd.Bound:
					verdict, broken = "WORSE than bound", true
				case spread(xa) > bd.Bound || spread(xb) > bd.Bound:
					verdict, broken = "SPREAD over bound", true
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g [%.4g, %.4g]\t%.1f%%\t%.4g [%.4g, %.4g]\t%.1f%%\t%+.1f%%\t%s\t%s\t%s\t%s\n",
				k, name, len(xa), len(xb), ma, qa1, qa3, 100*spread(xa), mb, qb1, qb3, 100*spread(xb),
				100*change, p, ci(xa), ci(xb), verdict)
		}
	}
	tw.Flush()
	return broken
}

func metricNames(a, b []*result) []string {
	seen := map[string]bool{}
	var names []string
	for _, rs := range [][]*result{a, b} {
		for _, r := range rs {
			for n := range r.Metrics {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

func ci(xs []float64) string {
	iv, err := stats.ConfidenceInterval(xs, 0.95)
	if err != nil {
		return "-"
	}
	return strings.TrimSpace(fmt.Sprintf("[%.4g, %.4g]", iv.Lo, iv.Hi))
}
