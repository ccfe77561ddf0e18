package main

import "sort"

// summary is the order statistics of one metric's samples. With the
// handful of reps a run holds no tail percentile is claimed: the
// quartiles are the widest spread reported.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile returns the p-quantile (0 < p < 1) of sorted xs with the
// exclusive method of Python's statistics.quantiles — position
// p*(n+1), linearly interpolated, clamped to the sample range — so a
// spread computed here equals the one the acceptance rule computes.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
}

// summarize returns the order statistics of xs (which it leaves
// untouched). An empty sample yields the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// fastest is summarize(xs).Min: what a timing loop reports (see the
// noise discipline in README.md).
func fastest(xs []float64) float64 { return summarize(xs).Min }

// spread is the interquartile range as a share of the median — the
// noise figure a metric's bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}
