package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the "aest" heavy-tail estimator of Crovella and
// Taqqu ("Estimating the Heavy Tail Index from Scaling Properties",
// Methodology and Computing in Applied Probability, 1999) — reference [1]
// of the paper. The estimator exploits the single-large-jump property of
// heavy-tailed sums: if X has a power-law tail with index alpha, the
// m-fold aggregate X^(m) (sums over non-overlapping blocks of size m)
// satisfies P[X^(m) > x] ≈ m · P[X > x] deep in the tail, so complementary
// distribution plots at successive aggregation levels are parallel lines
// in log-log space, offset horizontally by log(m2/m1)/alpha and
// vertically by log(m2/m1). aest estimates alpha from the measured
// horizontal offsets and reports the *tail onset*: the smallest abscissa
// beyond which the scaling relation (and a straight-line CCDF) holds.
//
// The paper uses the tail onset directly as the elephant separation
// threshold theta(t).

// The estimator runs at the published tool's settings for datasets of
// 10^3–10^5 points.
const (
	// aestMinTailPoints is the minimum number of distinct CCDF support
	// points the detected tail must span.
	aestMinTailPoints = 10
	// aestSlopeTolerance bounds the allowed relative disagreement between
	// tail slopes across aggregation levels. Aggregates of samples with
	// tail index approaching 2 bend towards Gaussian behaviour at
	// moderate probabilities, steepening their near-onset slope, so the
	// tolerance is generous.
	aestSlopeTolerance = 0.45
	// aestMinR2 is the minimum goodness of the log-log linear fit in the
	// tail at every level.
	aestMinR2 = 0.97
	// aestMinSlopeAlpha rejects candidates whose base-level log-log slope
	// implies a tail index at or below this value. A detected "tail"
	// with index <= 1 would have infinite mean — impossible for
	// quantities bounded by a finite link capacity — and in practice
	// marks the deceptively straight upper body of a lognormal.
	aestMinSlopeAlpha = 1.0
)

// Shared immutable settings, handed out by reference so a call costs no
// allocations. They must never be mutated.
var (
	// aggregationLevels lists block sizes m for the aggregates; the base
	// level 1 is implicit.
	aggregationLevels = []int{2, 4, 8}
	// candidateQuantiles are the sample quantiles used as candidate
	// tail-onset abscissas, scanned in order: the 25 values 0.50, 0.52,
	// ..., 0.98.
	candidateQuantiles = func() []float64 {
		qs := make([]float64, 0, 25)
		for q := 0.50; q <= 0.981; q += 0.02 {
			qs = append(qs, q)
		}
		return qs
	}()
)

// AestResult reports the estimator's findings.
type AestResult struct {
	// TailFound reports whether any candidate onset satisfied the
	// scaling criteria.
	TailFound bool
	// TailOnset is the abscissa after which power-law behaviour holds;
	// the paper sets theta(t) to this value.
	TailOnset float64
	// Alpha is the tail index estimated from inter-level horizontal
	// shifts (the aest estimate proper).
	Alpha float64
	// SlopeAlpha is the tail index implied by the base-level log-log
	// slope, a sanity cross-check (slope ≈ -alpha).
	SlopeAlpha float64
	// TailFraction is the fraction of the sample beyond the onset.
	TailFraction float64
}

// aestLevel is one aggregation level's tail fit.
type aestLevel struct {
	M     int     // aggregation block size
	Slope float64 // fitted log-log tail slope
	R2    float64
	N     int // tail points used in the fit
}

// AggregateInto appends the m-aggregated series of xs to dst and
// returns the extended slice: sums over consecutive non-overlapping
// blocks of size m, the trailing partial block dropped. With a nil dst
// it allocates a fresh series; the aest scratch arena passes its own
// storage. It panics on m < 1, a programmer error.
func AggregateInto(dst, xs []float64, m int) []float64 {
	if m < 1 {
		panic(fmt.Sprintf("stats: AggregateInto: block size %d < 1", m))
	}
	if m == 1 {
		return append(dst, xs...)
	}
	n := len(xs) / m
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < m; j++ {
			s += xs[i*m+j]
		}
		dst = append(dst, s)
	}
	return dst
}

// AestScratch owns the estimator's reusable working storage: one flat
// float64 arena carved per call into aggregate buffers, CCDF support
// arrays and their log-log coordinates, and the per-level fit records. A
// warm scratch makes AestSorted allocation-free.
//
// Ownership rules: a scratch belongs to one goroutine at a time and
// every buffer it hands out is invalidated by the next AestSorted call
// on the same scratch — nothing reachable from an AestResult aliases
// the scratch, so results outlive the scratch freely. The zero value is
// ready to use; detectors embed one per instance and the engine's
// prepass workers own one each.
type AestScratch struct {
	tmp []float64 // radix-sort ping-pong storage
	buf []float64 // flat arena, carved front-to-back per call
	// base is aggregation level 1; dists follow aggregationLevels.
	base   aestDist
	dists  []aestDist
	levels []aestLevel
}

// ensureTmp returns the sort scratch buffer sized for n elements.
func (s *AestScratch) ensureTmp(n int) []float64 {
	if cap(s.tmp) < n {
		s.tmp = make([]float64, n)
	}
	return s.tmp[:n]
}

// aestDist is one aggregation level's empirical CCDF together with its
// log10 coordinates, computed once and shared by every candidate onset
// (their tails overlap heavily). The coordinates are filled from the top
// of the support downward, only as far as the lowest index a fit has
// asked for: candidates start at the median, so the lower half of every
// level is never looked at.
type aestDist struct {
	c      CCDF
	lx, lp []float64 // log10 of c.X / c.P, index-aligned; valid from logged up
	logged int
}

// logLogFrom returns the log-log coordinates of support points i and
// up, extending the filled region downward when i lies below it.
func (d *aestDist) logLogFrom(i int) (lx, lp []float64) {
	for d.logged > i {
		d.logged--
		d.lx[d.logged] = math.Log10(d.c.X[d.logged])
		d.lp[d.logged] = math.Log10(d.c.P[d.logged])
	}
	return d.lx[i:], d.lp[i:]
}

// ensure sizes the arena for one call; take carves from it. Carved
// regions are capacity-capped sub-slices, so a defensive regrow in take
// never lets two regions alias.
func (s *AestScratch) ensure(n int) {
	s.buf = s.buf[:0]
	if cap(s.buf) < n {
		s.buf = make([]float64, 0, n)
	}
}

func (s *AestScratch) take(n int) []float64 {
	if len(s.buf)+n > cap(s.buf) {
		// ensure() undershot; start a fresh chunk — regions already
		// carved keep the old array alive.
		s.buf = make([]float64, 0, n+4096)
	}
	out := s.buf[len(s.buf) : len(s.buf)+n : len(s.buf)+n]
	s.buf = s.buf[:len(s.buf)+n]
	return out
}

// newDist builds the CCDF of an ascending-sorted positive sample into
// arena storage, with room for its log-log coordinates. Support values
// are identical to NewCCDF on the same sample.
func (s *AestScratch) newDist(clean []float64) aestDist {
	x := s.take(len(clean))[:0]
	p := s.take(len(clean))[:0]
	c := ccdfAppendSorted(clean, x, p)
	return aestDist{c: c, lx: s.take(c.Len()), lp: s.take(c.Len()), logged: c.Len()}
}

// Aest runs the scaling estimator on the sample xs. Non-positive, NaN
// and infinite values are dropped; xs is not modified. It needs on the
// order of a few hundred positive observations; smaller samples return
// TailFound == false rather than an error, because "no detectable tail"
// is an expected outcome the classifier must handle (it falls back to a
// quantile threshold). Aest allocates its working storage per call;
// AestSorted is the form for callers that already hold the sorted view.
func Aest(xs []float64) AestResult {
	positive := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) {
			positive = append(positive, x)
		}
	}
	sorted := append([]float64(nil), positive...)
	var s AestScratch
	SortPositive(sorted, s.ensureTmp(len(sorted)))
	return s.AestSorted(positive, sorted)
}

// AestSorted is Aest for callers that already hold both views of the
// sample: xs in its original observation order (block aggregation is
// order-sensitive, so this must be the as-measured sequence) and sorted,
// the same values in ascending order. It runs on the scratch's reusable
// storage, so a warm scratch allocates nothing. Both slices must contain
// only positive, finite values (the snapshot-bandwidth invariant) and are
// not modified.
func (s *AestScratch) AestSorted(xs, sorted []float64) AestResult {
	var res AestResult

	positive := xs
	lo := 0
	for lo < len(sorted) && sorted[lo] <= 0 {
		lo++
	}
	clean := sorted[lo:]

	need := 4*len(clean) + 5*len(aggregationLevels) + 16
	for _, m := range aggregationLevels {
		need += 5*(len(positive)/m) + 8
	}
	s.ensure(need)
	if cap(s.levels) < len(aggregationLevels)+1 {
		s.levels = make([]aestLevel, 0, len(aggregationLevels)+1)
	}

	s.base = s.newDist(clean)
	if s.base.c.Len() < aestMinTailPoints*2 {
		return res
	}

	// Aggregated CCDFs, computed once. The aggregate buffer is sorted in
	// place — it exists only to feed the CCDF, whose support is what
	// NewCCDF of the unsorted aggregate would produce.
	if cap(s.dists) < len(aggregationLevels) {
		s.dists = make([]aestDist, 0, len(aggregationLevels))
	}
	s.dists = s.dists[:0]
	for _, m := range aggregationLevels {
		agg := AggregateInto(s.take(len(positive) / m)[:0], positive, m)
		SortPositive(agg, s.ensureTmp(len(agg)))
		s.dists = append(s.dists, s.newDist(agg))
	}

	for _, q := range candidateQuantiles {
		onset := QuantileSorted(sorted, q)
		levels, ok := s.fitLevels(onset)
		if !ok {
			continue
		}
		alpha, ok := s.shiftAlpha(onset)
		if !ok {
			continue
		}
		res.TailFound = true
		res.TailOnset = onset
		res.Alpha = alpha
		res.SlopeAlpha = -levels[0].Slope
		tail := 0
		for _, x := range positive {
			if x > onset {
				tail++
			}
		}
		res.TailFraction = float64(tail) / float64(len(positive))
		return res
	}
	return res
}

// fitLevels fits log-log tail lines at every aggregation level beyond
// onset and checks straightness and cross-level slope agreement. The
// returned slice is the scratch's levels, valid until the next
// fitLevels call.
func (s *AestScratch) fitLevels(onset float64) ([]aestLevel, bool) {
	fit := func(d *aestDist, m int, from float64) (aestLevel, bool) {
		i := sort.SearchFloat64s(d.c.X, from)
		if d.c.Len()-i < aestMinTailPoints {
			return aestLevel{}, false
		}
		f, err := FitLine(d.logLogFrom(i))
		if err != nil || f.R2 < aestMinR2 || f.Slope >= 0 {
			return aestLevel{}, false
		}
		return aestLevel{M: m, Slope: f.Slope, R2: f.R2, N: d.c.Len() - i}, true
	}

	base := &s.base
	levels := s.levels[:0]
	l0, ok := fit(base, 1, onset)
	if !ok {
		return nil, false
	}
	if -l0.Slope <= aestMinSlopeAlpha {
		return nil, false
	}
	levels = append(levels, l0)
	// The m-aggregate's distribution is shifted right by roughly m·E[X],
	// so its scaling region does not start at the base onset abscissa.
	// Crovella–Taqqu compare levels at *equal tail probability*: the
	// aggregate is fitted from its own abscissa carrying the same CCDF
	// mass as the base onset. In the scaling regime the two log-log
	// tails are then parallel lines.
	pOnset := base.c.At(onset)
	eligible, passed := 0, 0
	for i := range s.dists {
		d := &s.dists[i]
		from, ok := d.c.InverseAt(pOnset)
		if !ok {
			continue
		}
		if d.c.TailFrom(from).Len() < aestMinTailPoints {
			continue // too few points to confirm or deny at this level
		}
		eligible++
		l, ok := fit(d, aggregationLevels[i], from)
		if !ok {
			continue
		}
		if rel := math.Abs(l.Slope-l0.Slope) / math.Abs(l0.Slope); rel > aestSlopeTolerance {
			continue
		}
		passed++
		levels = append(levels, l)
	}
	s.levels = levels
	// The base level establishes straightness beyond the onset; the
	// aggregation levels confirm the scaling relation. High aggregation
	// levels of samples with alpha near 2 legitimately bend (CLT
	// competition), so a majority of the eligible levels must confirm
	// rather than all of them.
	if eligible == 0 || passed*2 < eligible+1 {
		return nil, false
	}
	return levels, true
}

// shiftAlpha estimates alpha from horizontal offsets between successive
// aggregation levels: at equal tail probability p, log-abscissas differ
// by log(m)/alpha.
func (s *AestScratch) shiftAlpha(onset float64) (float64, bool) {
	base := &s.base
	pStart := base.c.At(onset)
	if pStart <= 0 {
		return 0, false
	}
	// The single-large-jump relation P[X^(m) > x] ≈ m·P[X > x] holds
	// deep in the tail; at moderate probabilities the aggregate is
	// instead shifted by m·E[X], which would bias alpha towards 1. So
	// probe the deepest usable probabilities of each aggregate — from a
	// few points above its resolution floor upwards — rather than just
	// below the onset probability.
	estimates := s.take(5 * len(s.dists))[:0]
	for i, d := range s.dists {
		m := float64(aggregationLevels[i])
		floor := 5.0 / float64(d.c.Len()+1) // stay above the last few points
		for k := 0; k <= 4; k++ {
			p := floor * math.Pow(2, float64(k))
			if p >= pStart {
				break
			}
			x1, ok1 := base.c.InverseAt(p)
			x2, ok2 := d.c.InverseAt(p)
			if !ok1 || !ok2 || x2 <= x1 || x1 <= 0 {
				continue
			}
			dx := float64(math.Log10(x2)) - float64(math.Log10(x1))
			if dx <= 0 {
				continue
			}
			estimates = append(estimates, math.Log10(m)/dx)
		}
	}
	if len(estimates) < 3 {
		return 0, false
	}
	// Median for robustness against the discreteness of small CCDFs.
	// The estimates are scratch-owned, so sorting in place is free.
	sort.Float64s(estimates)
	return QuantileSorted(estimates, 0.5), true
}

// Hill computes the Hill estimator of the tail index using the k largest
// order statistics. It is the classical cross-check for aest; k is
// typically 5–15% of the sample. It returns an error for k out of range
// or non-positive order statistics. xs is not modified.
func Hill(xs []float64, k int) (float64, error) {
	n := len(xs)
	if k < 2 || k >= n {
		return 0, fmt.Errorf("stats: Hill: k=%d out of range for n=%d", k, n)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	xk := sorted[n-1-k] // the (k+1)-th largest order statistic
	if xk <= 0 {
		return 0, fmt.Errorf("stats: Hill: order statistic x_(k)=%v is not positive", xk)
	}
	var sum float64
	for i := n - k; i < n; i++ {
		sum += math.Log(sorted[i] / xk)
	}
	if sum == 0 {
		return 0, fmt.Errorf("stats: Hill: degenerate top-k (all equal)")
	}
	return float64(k) / sum, nil
}
