package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// eagerDist is the oracle's aggregation level: the whole support in
// log-log coordinates, computed up front.
type eagerDist struct {
	c      CCDF
	lx, lp []float64
}

func newEagerDist(sample []float64) eagerDist {
	c := NewCCDF(sample)
	lx, lp := c.LogLog()
	return eagerDist{c: c, lx: lx, lp: lp}
}

// inverseAtLinear is the front-to-back scan CCDF.InverseAt used to be.
func inverseAtLinear(c CCDF, p float64) (float64, bool) {
	for i := range c.X {
		if c.P[i] <= p {
			return c.X[i], true
		}
	}
	return 0, false
}

// eagerAest is the estimator as it stood before its coordinates went
// lazy: every level's full log-log view computed on construction, the
// inverse CCDF read by linear scan, fresh storage throughout. It shares
// no code with AestScratch beyond the package's public primitives
// (NewCCDF, FitLine, AggregateInto, QuantileSorted), so it pins the lazy path's
// every output bit. Alongside the result it returns the per-level fits
// of the candidate that found the tail.
func eagerAest(xs []float64) (AestResult, []aestLevel) {
	var res AestResult
	var positive []float64
	for _, x := range xs {
		if x > 0 && !math.IsNaN(x) && !math.IsInf(x, 0) {
			positive = append(positive, x)
		}
	}
	sorted := append([]float64(nil), positive...)
	sort.Float64s(sorted)
	base := newEagerDist(positive)
	if base.c.Len() < aestMinTailPoints*2 {
		return res, nil
	}
	dists := make([]eagerDist, len(aggregationLevels))
	for i, m := range aggregationLevels {
		dists[i] = newEagerDist(AggregateInto(nil, positive, m))
	}
	fit := func(d eagerDist, m int, from float64) (aestLevel, bool) {
		i := sort.SearchFloat64s(d.c.X, from)
		if d.c.Len()-i < aestMinTailPoints {
			return aestLevel{}, false
		}
		f, err := FitLine(d.lx[i:], d.lp[i:])
		if err != nil || f.R2 < aestMinR2 || f.Slope >= 0 {
			return aestLevel{}, false
		}
		return aestLevel{M: m, Slope: f.Slope, R2: f.R2, N: d.c.Len() - i}, true
	}
	for _, q := range candidateQuantiles {
		onset := QuantileSorted(sorted, q)
		l0, ok := fit(base, 1, onset)
		if !ok || -l0.Slope <= aestMinSlopeAlpha {
			continue
		}
		levels := []aestLevel{l0}
		pOnset := base.c.At(onset)
		eligible, passed := 0, 0
		for i, d := range dists {
			from, ok := inverseAtLinear(d.c, pOnset)
			if !ok || d.c.TailFrom(from).Len() < aestMinTailPoints {
				continue
			}
			eligible++
			l, ok := fit(d, aggregationLevels[i], from)
			if !ok || math.Abs(l.Slope-l0.Slope)/math.Abs(l0.Slope) > aestSlopeTolerance {
				continue
			}
			passed++
			levels = append(levels, l)
		}
		if eligible == 0 || passed*2 < eligible+1 || pOnset <= 0 {
			continue
		}
		var estimates []float64
		for i, d := range dists {
			floor := 5.0 / float64(d.c.Len()+1)
			for k := 0; k <= 4; k++ {
				p := floor * math.Pow(2, float64(k))
				if p >= pOnset {
					break
				}
				x1, ok1 := inverseAtLinear(base.c, p)
				x2, ok2 := inverseAtLinear(d.c, p)
				if !ok1 || !ok2 || x2 <= x1 || x1 <= 0 {
					continue
				}
				if dx := math.Log10(x2) - math.Log10(x1); dx > 0 {
					estimates = append(estimates, math.Log10(float64(aggregationLevels[i]))/dx)
				}
			}
		}
		if len(estimates) < 3 {
			continue
		}
		sort.Float64s(estimates)
		res.TailFound = true
		res.TailOnset = onset
		res.Alpha = QuantileSorted(estimates, 0.5)
		res.SlopeAlpha = -l0.Slope
		tail := 0
		for _, x := range positive {
			if x > onset {
				tail++
			}
		}
		res.TailFraction = float64(tail) / float64(len(positive))
		return res, levels
	}
	return res, nil
}

// TestAestMatchesEagerOracle: the lazy estimator against eagerAest,
// whole AestResult and, on a warm scratch, the per-level fits, bit for
// bit — on the shapes the detector meets (Pareto across tail indices,
// lognormal bodies with a grafted tail), on the ones that end in the
// fallback (light tail, too few support points), and on heavy ties.
func TestAestMatchesEagerOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	heavyTies := make([]float64, 5000)
	for i := range heavyTies {
		heavyTies[i] = math.Round(20*math.Pow(rng.Float64(), -1/1.3)) + 1
	}
	lightTail := make([]float64, 5000)
	for i := range lightTail {
		lightTail[i] = 1 + rng.Float64()
	}
	samples := map[string][]float64{
		"pareto-1.2":    pareto(rng, 6000, 1.2, 1),
		"pareto-1.9":    pareto(rng, 3000, 1.9, 40),
		"body+tail":     mixedSample(4500, 5),
		"body+tail-2":   append(lognormal(rng, 9000, 0, 1), pareto(rng, 1000, 1.4, math.Exp(2.5))...),
		"light-tail":    lightTail,
		"heavy-ties":    heavyTies,
		"few-points":    {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
		"all-equal":     {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
		"junk-mixed-in": append([]float64{0, -1, math.NaN(), math.Inf(1)}, pareto(rng, 2000, 1.5, 1)...),
		"pareto-1.1":    pareto(rng, 4000, 1.1, 1),
		"pareto-1.3":    pareto(rng, 5000, 1.3, 10),
		"pareto-1.6":    pareto(rng, 4000, 1.6, 1),
		"pareto-1.75":   pareto(rng, 8000, 1.75, 5),
		"body+tail-3":   mixedSample(6000, 11),
		"body+tail-4":   mixedSample(3000, 23),
		"body+tail-5":   append(lognormal(rng, 4000, 1, 0.8), pareto(rng, 600, 1.6, math.Exp(3))...),
	}
	var scratch AestScratch // one arena across every call, as a detector holds it
	found := 0
	for sname, xs := range samples {
		want, wantLevels := eagerAest(xs)
		if want.TailFound {
			found++
		}
		if got := Aest(xs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Aest diverged from the eager oracle\nwant %+v\ngot  %+v", sname, want, got)
		}
		// The warm-scratch path takes the views a detector holds: the
		// positive values in observation order and the same sorted.
		var positive []float64
		for _, x := range xs {
			if x > 0 && !math.IsInf(x, 0) {
				positive = append(positive, x)
			}
		}
		sorted := append([]float64(nil), positive...)
		sort.Float64s(sorted)
		got := scratch.AestSorted(positive, sorted)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: warm-scratch AestSorted diverged from the eager oracle\nwant %+v\ngot  %+v", sname, want, got)
		}
		if got.TailFound && !reflect.DeepEqual(scratch.levels, wantLevels) {
			t.Errorf("%s: warm-scratch level fits diverged from the eager oracle\nwant %+v\ngot  %+v", sname, wantLevels, scratch.levels)
		}
	}
	if found < 10 {
		t.Fatalf("only %d of the samples found a tail — they no longer exercise the fit path", found)
	}
}
