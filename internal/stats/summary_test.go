package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Sum != 0 || s.Mean != 0 || s.Variance != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zero value", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("Summarize([42]) = %+v", s)
	}
	if s.Variance != 0 || s.StdDev != 0 {
		t.Fatalf("single-sample variance = %v, want 0", s.Variance)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// Sample with textbook values: mean 5, variance 10 (n-1 denominator).
	xs := []float64{1, 3, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 5 || s.Sum != 25 {
		t.Fatalf("N=%d Sum=%v", s.N, s.Sum)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if !almostEqual(s.Variance, 10, 1e-12) {
		t.Errorf("Variance = %v, want 10", s.Variance)
	}
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
}

func TestSummarizeNegativeValues(t *testing.T) {
	s := Summarize([]float64{-5, -1, -3})
	if !almostEqual(s.Mean, -3, 1e-12) {
		t.Errorf("Mean = %v, want -3", s.Mean)
	}
	if s.Min != -5 || s.Max != -1 {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
}

// TestSummarizeWelfordStability checks the one-pass variance against the
// naive two-pass computation on a sample with a huge offset, where the
// naive sum-of-squares formula loses precision.
func TestSummarizeWelfordStability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	const offset = 1e9
	for i := range xs {
		xs[i] = offset + rng.Float64()
	}
	s := Summarize(xs)
	// Two-pass reference.
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	ref := m2 / float64(len(xs)-1)
	if !almostEqual(s.Variance, ref, 1e-9) {
		t.Errorf("Variance = %v, two-pass reference = %v", s.Variance, ref)
	}
	if s.Variance < 0 {
		t.Errorf("variance must be non-negative, got %v", s.Variance)
	}
}

func TestSummarizeProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Min > s.Max || s.Mean < s.Min || s.Mean > s.Max {
			return false
		}
		return s.Variance >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantileBasics(t *testing.T) {
	sorted := []float64{1, 1, 2, 3, 4, 5, 6, 9}
	if got := QuantileSorted(sorted, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := QuantileSorted(sorted, 1); got != 9 {
		t.Errorf("q1 = %v, want 9", got)
	}
	// Median of 8 sorted values interpolates between the 4th and 5th.
	want := (sorted[3] + sorted[4]) / 2
	if got := QuantileSorted(sorted, 0.5); !almostEqual(got, want, 1e-12) {
		t.Errorf("median = %v, want %v", got, want)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{1, 3, 5}
	QuantileSorted(xs, 0.5)
	if xs[0] != 1 || xs[1] != 3 || xs[2] != 5 {
		t.Errorf("QuantileSorted mutated its input: %v", xs)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"empty", nil, 0.5},
		{"q<0", []float64{1}, -0.1},
		{"q>1", []float64{1}, 1.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			QuantileSorted(tc.xs, tc.q)
		})
	}
}

func TestQuantileMonotone(t *testing.T) {
	prop := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return QuantileSorted(xs, qa) <= QuantileSorted(xs, qb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEWMAPaperConvention(t *testing.T) {
	// θ̂(t+1) = α·θ̂(t) + (1−α)·θ(t) with α = 0.5.
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA reports initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first update = %v, want 10 (bootstrap)", got)
	}
	if got := e.Update(20); got != 15 {
		t.Fatalf("second update = %v, want 15", got)
	}
	if got := e.Update(15); got != 15 {
		t.Fatalf("third update = %v, want 15", got)
	}
	if !e.Initialized() || e.Value() != 15 {
		t.Fatalf("state: init=%v value=%v", e.Initialized(), e.Value())
	}
}

func TestEWMAAlphaExtremes(t *testing.T) {
	// α = 0: no memory, tracks the observation exactly.
	e := NewEWMA(0)
	e.Update(5)
	e.Update(100)
	if e.Value() != 100 {
		t.Errorf("alpha=0: value = %v, want 100", e.Value())
	}
	// α = 1: frozen at the first observation.
	f := NewEWMA(1)
	f.Update(5)
	f.Update(100)
	if f.Value() != 5 {
		t.Errorf("alpha=1: value = %v, want 5", f.Value())
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.5)
	e.Update(10)
	e.Reset()
	if e.Initialized() || e.Value() != 0 {
		t.Fatalf("after Reset: init=%v value=%v", e.Initialized(), e.Value())
	}
	if got := e.Update(7); got != 7 {
		t.Fatalf("update after reset = %v, want 7 (re-bootstrap)", got)
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, a := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v): expected panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

// TestEWMAConvergence: feeding a constant must converge to it from any
// starting point, for any alpha < 1.
func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.9)
	e.Update(1000)
	for i := 0; i < 400; i++ {
		e.Update(3)
	}
	if !almostEqual(e.Value(), 3, 1e-9) {
		t.Errorf("EWMA did not converge: %v", e.Value())
	}
}

// TestEWMABoundedByInputs: the smoothed value always stays within the
// min/max of the observations (convexity).
func TestEWMABoundedByInputs(t *testing.T) {
	prop := func(alphaRaw float64, raw []float64) bool {
		alpha := math.Abs(math.Mod(alphaRaw, 1))
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewEWMA(alpha)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			e.Update(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
