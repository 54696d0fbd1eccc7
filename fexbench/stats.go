package main

import (
	"math"
	"sort"

	"fex/internal/stats"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN when xs is empty.
func median(xs []float64) float64 { return orNaN(stats.Median(xs)) }

// mean returns the arithmetic mean of xs; NaN when xs is empty.
func mean(xs []float64) float64 { return orNaN(stats.Mean(xs)) }

func orNaN(x float64, err error) float64 {
	if err != nil {
		return math.NaN()
	}
	return x
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads read here agree with a Python reading of the same
// values. A single value is its own quartiles; empty input gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median — the
// steadiness measure the benchmark's bounds are set against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	md := median(xs)
	if md == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(md)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary describes one metric's samples.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}
