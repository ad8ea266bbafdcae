package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank: the smallest value with at least p% of the samples at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // the slack absorbs p/100 not being exact
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// reportable are the percentiles the report knows how to name,
// ascending, each with the share of samples beyond it in parts per
// 10 000 (integers, so that 100 samples × 10 % is exactly ten).
var reportable = []struct {
	p      float64
	beyond int
}{{50, 5000}, {90, 1000}, {95, 500}, {99, 100}, {99.9, 10}, {99.99, 1}}

// highestSupported returns the highest reportable percentile that still
// has at least ten samples beyond it in a sample of n, or 0 when even
// the median does not (n < 20).
func highestSupported(n int) float64 {
	best := 0.0
	for _, r := range reportable {
		if n*r.beyond >= 10*10000 {
			best = r.p
		}
	}
	return best
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max−min)/median over the windows of one run: the
// within-run noise printed beside every metric.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// metric is one reported number: the median over the run's windows, the
// per-window values it came from and the sample count behind them.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Spread  float64   `json:"spread"`
	Samples int       `json:"samples"`
	Windows []float64 `json:"windows,omitempty"`
}

func newMetric(name, unit string, windows []float64, samples int) metric {
	return metric{Name: name, Unit: unit, Value: median(windows), Spread: spread(windows),
		Samples: samples, Windows: windows}
}
