package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// pareto draws n Pareto(alpha, xm) samples.
func pareto(rng *rand.Rand, n int, alpha, xm float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		u := rng.Float64()
		if u < 1e-15 {
			u = 1e-15
		}
		xs[i] = xm * math.Pow(u, -1/alpha)
	}
	return xs
}

// lognormal draws n lognormal(mu, sigma) samples.
func lognormal(rng *rand.Rand, n int, mu, sigma float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(mu + sigma*rng.NormFloat64())
	}
	return xs
}

func TestAggregate(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := AggregateInto(nil, xs, 2)
	want := []float64{3, 7, 11} // trailing 7 dropped
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("agg[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAggregateIdentity(t *testing.T) {
	xs := []float64{1, 2, 3}
	got := AggregateInto(nil, xs, 1)
	if &got[0] == &xs[0] {
		t.Error("AggregateInto(nil, m=1) must copy, not alias")
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Errorf("agg[%d] = %v, want %v", i, got[i], xs[i])
		}
	}
}

func TestAggregatePanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for m=0")
		}
	}()
	AggregateInto(nil, []float64{1}, 0)
}

func TestAggregateMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	for _, m := range []int{2, 4, 8, 10} {
		agg := AggregateInto(nil, xs, m)
		var sumAgg, sumXs float64
		for _, v := range agg {
			sumAgg += v
		}
		n := (len(xs) / m) * m
		for _, v := range xs[:n] {
			sumXs += v
		}
		if !almostEqual(sumAgg, sumXs, 1e-9) {
			t.Errorf("m=%d: aggregate sum %v != covered sum %v", m, sumAgg, sumXs)
		}
	}
}

// TestAestPurePareto: on a pure Pareto sample, aest must find a tail and
// estimate alpha within a reasonable band.
func TestAestPurePareto(t *testing.T) {
	for _, alpha := range []float64{1.2, 1.5, 1.9} {
		rng := rand.New(rand.NewSource(6))
		xs := pareto(rng, 20000, alpha, 1)
		res := Aest(xs)
		if !res.TailFound {
			t.Fatalf("alpha=%v: no tail found on pure Pareto", alpha)
		}
		if math.Abs(res.Alpha-alpha) > 0.5 {
			t.Errorf("alpha=%v: estimated %v, off by more than 0.5", alpha, res.Alpha)
		}
		if res.TailFraction <= 0 || res.TailFraction > 1 {
			t.Errorf("alpha=%v: tail fraction %v out of (0,1]", alpha, res.TailFraction)
		}
	}
}

// TestAestParetoOnLognormalBody: the classifier's actual regime — a
// lognormal body with a Pareto tail grafted on. The detected onset must
// fall between the body bulk and the tail start.
func TestAestBodyPlusTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	body := lognormal(rng, 9000, 0, 1)
	tailStart := math.Exp(2.5) // ≈ 12.18, well above the body median 1
	tail := pareto(rng, 1000, 1.4, tailStart)
	xs := append(body, tail...)
	res := Aest(xs)
	if !res.TailFound {
		t.Fatal("no tail found on body+tail mixture")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if res.TailOnset <= QuantileSorted(sorted, 0.25) {
		t.Errorf("onset %v is inside the body bulk", res.TailOnset)
	}
	if res.TailOnset > tailStart*10 {
		t.Errorf("onset %v is way beyond the tail start %v", res.TailOnset, tailStart)
	}
}

// TestAestLightTail: on light-tailed data (exponential/normal) the
// estimator must usually decline to find a power-law tail. Occasional
// false positives on a single draw are tolerated by testing several
// seeds and requiring a majority of rejections.
func TestAestLightTailMostlyRejected(t *testing.T) {
	rejected := 0
	const trials = 7
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		xs := make([]float64, 8000)
		for i := range xs {
			xs[i] = rng.ExpFloat64() + 0.01
		}
		if res := Aest(xs); !res.TailFound {
			rejected++
		}
	}
	if rejected < trials/2+1 {
		t.Errorf("light-tailed data accepted too often: %d/%d rejected", rejected, trials)
	}
}

func TestAestTinySample(t *testing.T) {
	res := Aest([]float64{1, 2, 3})
	if res.TailFound {
		t.Error("3-point sample cannot support a tail claim")
	}
}

func TestAestAllEqual(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 5
	}
	if res := Aest(xs); res.TailFound {
		t.Error("constant sample has no tail")
	}
}

func TestAestIgnoresJunkValues(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := pareto(rng, 10000, 1.5, 1)
	xs = append(xs, math.NaN(), math.Inf(1), -5, 0)
	res := Aest(xs)
	if !res.TailFound {
		t.Error("junk values broke tail detection")
	}
}

func TestAestDoesNotMutateVisibly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := pareto(rng, 5000, 1.5, 1)
	cp := make([]float64, len(xs))
	copy(cp, xs)
	Aest(xs)
	for i := range xs {
		if xs[i] != cp[i] {
			t.Fatal("Aest mutated its input")
		}
	}
}

func TestAestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	xs := pareto(rng, 8000, 1.3, 1)
	a := Aest(xs)
	b := Aest(xs)
	if a.TailFound != b.TailFound || a.TailOnset != b.TailOnset || a.Alpha != b.Alpha {
		t.Errorf("Aest not deterministic: %+v vs %+v", a, b)
	}
}

// TestAestScaleInvariance: multiplying the sample by a constant must
// scale the onset by (roughly) the same constant and keep alpha stable.
// The candidate grid is quantile-based, so this holds exactly.
func TestAestScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := pareto(rng, 10000, 1.5, 1)
	const k = 1e6
	scaled := make([]float64, len(xs))
	for i := range xs {
		scaled[i] = xs[i] * k
	}
	a := Aest(xs)
	b := Aest(scaled)
	if !a.TailFound || !b.TailFound {
		t.Fatalf("tails: %v, %v", a.TailFound, b.TailFound)
	}
	if !almostEqual(b.TailOnset, a.TailOnset*k, 1e-6) {
		t.Errorf("onset did not scale: %v vs %v*%v", b.TailOnset, a.TailOnset, k)
	}
	if math.Abs(a.Alpha-b.Alpha) > 1e-6 {
		t.Errorf("alpha changed under scaling: %v vs %v", a.Alpha, b.Alpha)
	}
}

func TestHillOnPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, alpha := range []float64{1.1, 1.5, 2.0} {
		xs := pareto(rng, 20000, alpha, 1)
		k := len(xs) / 10
		got, err := Hill(xs, k)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if math.Abs(got-alpha) > 0.25 {
			t.Errorf("alpha=%v: Hill = %v", alpha, got)
		}
	}
}

func TestHillErrors(t *testing.T) {
	if _, err := Hill([]float64{1, 2, 3}, 1); err == nil {
		t.Error("k=1: expected error")
	}
	if _, err := Hill([]float64{1, 2, 3}, 3); err == nil {
		t.Error("k=n: expected error")
	}
	if _, err := Hill([]float64{-1, -2, -3, -4}, 2); err == nil {
		t.Error("negative order statistics: expected error")
	}
	if _, err := Hill([]float64{5, 5, 5, 5, 5}, 2); err == nil {
		t.Error("degenerate top-k: expected error")
	}
}

// TestHillAgreesWithAest: the two estimators must broadly agree on a
// pure Pareto sample — the cross-check the paper's reference [1]
// recommends.
func TestHillAgreesWithAest(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs := pareto(rng, 20000, 1.4, 1)
	res := Aest(xs)
	if !res.TailFound {
		t.Fatal("no tail")
	}
	hill, err := Hill(xs, len(xs)/10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Alpha-hill) > 0.5 {
		t.Errorf("aest %v vs hill %v disagree by > 0.5", res.Alpha, hill)
	}
}
