package stats

import (
	"fmt"
	"math"
	"sort"
)

// CCDF is an empirical complementary cumulative distribution function:
// for each support point X[i], P[x > X[i]] = P[i]. Points are strictly
// increasing in X and strictly decreasing in P (ties collapsed).
type CCDF struct {
	X []float64
	P []float64
}

// NewCCDF builds the empirical CCDF of xs. Non-positive and NaN values
// are dropped (the estimators operate in log-log space). The input is not
// modified.
func NewCCDF(xs []float64) CCDF {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 && !math.IsNaN(x) && !math.IsInf(x, 0) {
			clean = append(clean, x)
		}
	}
	sort.Float64s(clean)
	return ccdfAppendSorted(clean, nil, nil)
}

// ccdfAppendSorted collapses an ascending-sorted positive sample into
// CCDF support points, appended to x and p (nil for fresh storage; the
// aest scratch arena passes its own).
func ccdfAppendSorted(clean, x, p []float64) CCDF {
	n := len(clean)
	for i := 0; i < n; {
		j := i
		for j < n && clean[j] == clean[i] {
			j++
		}
		// P[x > clean[i]] = (n - j) / n, computed at the last tie.
		pv := float64(n-j) / float64(n)
		if pv > 0 { // the maximum has CCDF 0; it carries no log-log info
			x = append(x, clean[i])
			p = append(p, pv)
		}
		i = j
	}
	return CCDF{X: x, P: p}
}

// Len reports the number of support points.
func (c CCDF) Len() int { return len(c.X) }

// At evaluates P[x > v] by step interpolation.
func (c CCDF) At(v float64) float64 {
	if len(c.X) == 0 {
		return 0
	}
	// First index with X > v; CCDF at v equals P of the last X <= v.
	i := sort.SearchFloat64s(c.X, v)
	if i < len(c.X) && c.X[i] == v {
		return c.P[i]
	}
	if i == 0 {
		return 1
	}
	return c.P[i-1]
}

// InverseAt returns the smallest support point x with P[X > x] <= p,
// i.e. the (1-p)-quantile read off the CCDF, by binary search over the
// strictly decreasing P. ok is false for an empty distribution or when
// no point is that rare.
func (c CCDF) InverseAt(p float64) (float64, bool) {
	i := sort.Search(len(c.P), func(i int) bool { return c.P[i] <= p })
	if i == len(c.P) {
		return 0, false
	}
	return c.X[i], true
}

// TailFrom returns the sub-CCDF restricted to support points >= x0.
func (c CCDF) TailFrom(x0 float64) CCDF {
	i := sort.SearchFloat64s(c.X, x0)
	return CCDF{X: c.X[i:], P: c.P[i:]}
}

// LogLog returns the support in (log10 x, log10 p) coordinates.
func (c CCDF) LogLog() (lx, lp []float64) {
	lx = make([]float64, len(c.X))
	lp = make([]float64, len(c.P))
	for i := range c.X {
		lx[i] = math.Log10(c.X[i])
		lp[i] = math.Log10(c.P[i])
	}
	return lx, lp
}

// LinearFit is an ordinary-least-squares line y = Slope*x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64 // coefficient of determination
	N                int
}

// FitLine computes the OLS fit of y on x. It returns an error when fewer
// than two distinct x values are supplied.
func FitLine(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: FitLine: mismatched lengths %d, %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine: need >= 2 points, got %d", n)
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLine: x values are constant")
	}
	f := LinearFit{N: n}
	f.Slope = sxy / sxx
	f.Intercept = my - float64(f.Slope*mx)
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = sxy * sxy / (sxx * syy)
	}
	return f, nil
}
