package stats

import (
	"fmt"
	"sort"
)

// This file quantifies the "elephants and mice phenomenon" the paper's
// introduction cites: a very small percentage of the flows carries the
// largest part of the information. The Lorenz curve and Gini coefficient
// are the standard concentration measures; TopShare answers the popular
// "what fraction of traffic do the top p% of flows carry" phrasing.

// Lorenz returns the Lorenz curve of the non-negative sample xs: points
// (F[i], L[i]) where F[i] is the cumulative fraction of flows (sorted
// ascending by size) and L[i] the cumulative fraction of volume. The
// curve starts at the first sample point; (0,0) is implicit. Negative
// and NaN values are rejected.
func Lorenz(xs []float64) (f, l []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("stats: Lorenz of empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	var total float64
	for _, x := range sorted {
		if x < 0 || x != x {
			return nil, nil, fmt.Errorf("stats: Lorenz: invalid value %v", x)
		}
		total += x
	}
	if total <= 0 {
		return nil, nil, fmt.Errorf("stats: Lorenz: zero total volume")
	}
	sort.Float64s(sorted)
	n := float64(len(sorted))
	f = make([]float64, len(sorted))
	l = make([]float64, len(sorted))
	var cum float64
	for i, x := range sorted {
		cum += x
		f[i] = float64(i+1) / n
		l[i] = cum / total
	}
	return f, l, nil
}

// Gini computes the Gini coefficient of the non-negative sample: 0 for
// perfectly equal flows, approaching 1 when a single flow carries
// everything. Backbone flow-size distributions typically exceed 0.9.
func Gini(xs []float64) (float64, error) {
	f, l, err := Lorenz(xs)
	if err != nil {
		return 0, err
	}
	// Gini = 1 - 2 * area under the Lorenz curve (trapezoidal, with the
	// implicit origin).
	var area float64
	prevF, prevL := 0.0, 0.0
	for i := range f {
		area += float64((f[i] - prevF) * (l[i] + prevL) / 2)
		prevF, prevL = f[i], l[i]
	}
	return 1 - 2*area, nil
}

// TopShare returns the fraction of total volume carried by the largest
// p-fraction of flows (0 < p <= 1). TopShare(xs, 0.1) = 0.9 reads "the
// top 10% of flows carry 90% of the traffic".
func TopShare(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: TopShare of empty sample")
	}
	if p <= 0 || p > 1 {
		return 0, fmt.Errorf("stats: TopShare fraction %v outside (0,1]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := int(float64(p*float64(len(sorted))) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	var top, total float64
	for i, x := range sorted {
		if x < 0 || x != x {
			return 0, fmt.Errorf("stats: TopShare: invalid value %v", x)
		}
		total += x
		if i < k {
			top += x
		}
	}
	if total <= 0 {
		return 0, fmt.Errorf("stats: TopShare: zero total volume")
	}
	return top / total, nil
}
