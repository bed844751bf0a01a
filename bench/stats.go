package main

import (
	"math"
	"sort"
)

// summary is how every wall-clock metric is reported: the median of the
// rounds or segments measured inside one run, with its quartiles and the
// sample count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	return summary{
		Median: quantile(xs, 0.5),
		Q1:     quantile(xs, 0.25),
		Q3:     quantile(xs, 0.75),
		N:      len(xs),
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileOrZero is quantile for figures that read zero when nothing was
// sampled.
func quantileOrZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPermilles are the candidates for "the highest percentile the
// sample supports", highest first, in tenths of a percent so that the
// support test is exact.
var tailPermilles = []int{999, 990, 950, 900, 750}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// supportedPercentile returns the highest candidate percentile with at
// least minBeyond of n samples beyond it, or 50 when none qualifies.
func supportedPercentile(n int) float64 {
	for _, pm := range tailPermilles {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// tailQuantile is the latency tail the benchmark reports under the p99
// names: the 99th percentile when the sample supports it, otherwise the
// highest supported percentile below it. The percentile actually used is
// returned so the report can say so.
func tailQuantile(xs []float64) (value, percentile float64) {
	p := math.Min(99, supportedPercentile(len(xs)))
	return quantile(xs, p/100), p
}
