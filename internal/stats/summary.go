// Package stats provides the statistical machinery of the reproduction:
// empirical distributions (CDF/CCDF), log-log least squares, the
// Crovella–Taqqu "aest" scaling estimator for heavy-tail onset and index,
// run at the published tool's one configuration, a Hill estimator used as
// a cross-check, EWMA smoothing and quantiles. Everything is
// deterministic and stdlib-only. A summed product is wrapped in float64(…)
// so no host fuses a multiply-add (scripts/nofma.sh).
//
// Each estimator has one form: QuantileSorted reads a sorted sample,
// AggregateInto appends block sums (a nil dst allocates), Hill and
// NewCCDF copy and sort their input, and SortPositive is the radix sort
// every sorted view on the hot path comes from. aest alone has two:
// Aest filters, sorts and runs on fresh storage, for one-off callers,
// and (*AestScratch).AestSorted takes both views of an already-sorted
// sample on a caller-owned arena of reusable buffers, for the detector;
// see AestScratch for the ownership rules (one goroutine per scratch,
// buffers invalidated by the next call, results never alias the
// arena).
package stats

import (
	"fmt"
	"math"
)

// Summary holds moment statistics of a sample.
type Summary struct {
	N        int
	Sum      float64
	Mean     float64
	Variance float64 // unbiased (n-1) estimator; zero for N < 2
	StdDev   float64
	Min, Max float64
}

// Summarize computes moment statistics in one pass (Welford update for
// numerical stability). An empty sample returns the zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.N = len(xs)
	s.Min, s.Max = xs[0], xs[0]
	var mean, m2 float64
	for i, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += float64(delta * (x - mean))
	}
	s.Mean = mean
	if s.N > 1 {
		s.Variance = m2 / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	return s
}

// QuantileSorted returns the q-quantile (0 <= q <= 1) of an
// ascending-sorted sample using linear interpolation between order
// statistics. The input is not modified. It panics on an empty sample or
// out-of-range q, which are programmer errors.
func QuantileSorted(sorted []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: QuantileSorted fraction %v out of [0,1]", q))
	}
	n := len(sorted)
	if n == 0 {
		panic("stats: QuantileSorted of empty sample")
	}
	if n == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// EWMA is an exponentially weighted moving average with the paper's
// convention: next = alpha*current + (1-alpha)*observation. With alpha =
// 0.5 (the paper's choice) old state and new observation weigh equally.
type EWMA struct {
	Alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing weight on the *old*
// value, matching θ̂(t+1) = α·θ̂(t) + (1−α)·θ(t) from the paper.
func NewEWMA(alpha float64) *EWMA {
	if !(alpha >= 0 && alpha <= 1) { // also rejects NaN
		panic(fmt.Sprintf("stats: EWMA alpha %v out of [0,1]", alpha))
	}
	return &EWMA{Alpha: alpha}
}

// Update folds one observation in and returns the new smoothed value. The
// first observation initializes the average.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return e.value
	}
	e.value = float64(e.Alpha*e.value) + float64((1-e.Alpha)*x)
	return e.value
}

// Value returns the current smoothed value (zero before any update).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// Reset clears the average to its pre-initialization state.
func (e *EWMA) Reset() { e.value, e.init = 0, false }
