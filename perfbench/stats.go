package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples must lie beyond a reported
// percentile for it to be more than a handful of outliers.
const tailSamples = 10

// highestPercentile is the percentile rule: the highest percentile of
// n samples that still has at least tailSamples samples beyond it, or
// 0 when n is too small for any tail.
func highestPercentile(n int) float64 {
	if n <= tailSamples {
		return 0
	}
	return 100 * (1 - float64(tailSamples)/float64(n))
}

// rrmse is the relative root-mean-square divergence of got from ref,
// the statistic the fidelity probe and the MVM benchmarks gate on.
func rrmse(got, ref []float64) float64 {
	var num, den float64
	for i := range ref {
		d := got[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
