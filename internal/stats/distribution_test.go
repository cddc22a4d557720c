package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCCDFSmall(t *testing.T) {
	// Sample {1, 2, 2, 4}: P[x>1]=3/4, P[x>2]=1/4, P[x>4]=0 (dropped).
	c := NewCCDF([]float64{4, 2, 1, 2})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (max point carries no mass)", c.Len())
	}
	if c.X[0] != 1 || !almostEqual(c.P[0], 0.75, 1e-12) {
		t.Errorf("point 0 = (%v, %v), want (1, 0.75)", c.X[0], c.P[0])
	}
	if c.X[1] != 2 || !almostEqual(c.P[1], 0.25, 1e-12) {
		t.Errorf("point 1 = (%v, %v), want (2, 0.25)", c.X[1], c.P[1])
	}
}

func TestNewCCDFDropsJunk(t *testing.T) {
	c := NewCCDF([]float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1), 5, 10})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only 5 and 10 are usable; 10 is max)", c.Len())
	}
	if c.X[0] != 5 || c.P[0] != 0.5 {
		t.Errorf("point = (%v, %v), want (5, 0.5)", c.X[0], c.P[0])
	}
}

func TestNewCCDFEmpty(t *testing.T) {
	for _, xs := range [][]float64{nil, {}, {-1, 0}} {
		if c := NewCCDF(xs); c.Len() != 0 {
			t.Errorf("NewCCDF(%v).Len() = %d, want 0", xs, c.Len())
		}
	}
}

func TestCCDFAt(t *testing.T) {
	c := NewCCDF([]float64{1, 2, 2, 4})
	cases := []struct {
		v, want float64
	}{
		{0.5, 1},    // below support: everything exceeds
		{1, 0.75},   // at a support point
		{1.5, 0.75}, // between: step function
		{2, 0.25},
		{3, 0.25},
		{4, 0.25}, // at the max (last stored P)
		{5, 0.25}, // beyond support: At clamps to last stored point
	}
	for _, tc := range cases {
		if got := c.At(tc.v); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestCCDFAtEmpty(t *testing.T) {
	var c CCDF
	if got := c.At(1); got != 0 {
		t.Errorf("empty CCDF At = %v, want 0", got)
	}
}

func TestCCDFInverseAt(t *testing.T) {
	c := NewCCDF([]float64{1, 2, 2, 4})
	if x, ok := c.InverseAt(0.75); !ok || x != 1 {
		t.Errorf("InverseAt(0.75) = %v, %v", x, ok)
	}
	if x, ok := c.InverseAt(0.5); !ok || x != 2 {
		t.Errorf("InverseAt(0.5) = %v, %v (first point with P <= 0.5)", x, ok)
	}
	if _, ok := c.InverseAt(-0.1); ok {
		t.Error("InverseAt(-0.1) should fail: no support point is that rare")
	}

	// The binary search against the linear scan it replaced, on random
	// CCDFs (continuous, and tie-heavy so P steps unevenly), for p at,
	// just below, just above and midway between every P[i], beyond both
	// ends, and NaN.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		xs := make([]float64, 1+rng.Intn(400))
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64())
			if trial%2 == 1 {
				xs[i] = float64(1 + rng.Intn(12))
			}
		}
		c := NewCCDF(xs)
		probes := []float64{-1, 0, 1, 2, math.NaN(), math.Inf(1)}
		for i, p := range c.P {
			probes = append(probes, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
			if i > 0 {
				probes = append(probes, (p+c.P[i-1])/2)
			}
		}
		for _, p := range probes {
			wantX, wantOK := inverseAtLinear(c, p)
			if x, ok := c.InverseAt(p); x != wantX || ok != wantOK {
				t.Fatalf("trial %d: InverseAt(%v) = %v, %v; linear scan says %v, %v", trial, p, x, ok, wantX, wantOK)
			}
		}
	}
}

func TestCCDFTailFrom(t *testing.T) {
	c := NewCCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	tail := c.TailFrom(4)
	if tail.Len() == 0 || tail.X[0] < 4 {
		t.Fatalf("TailFrom(4) starts at %v", tail.X)
	}
	for i := range tail.X {
		if tail.X[i] < 4 {
			t.Errorf("tail contains %v < 4", tail.X[i])
		}
	}
	// Degenerate: from beyond the maximum.
	if tl := c.TailFrom(100); tl.Len() != 0 {
		t.Errorf("TailFrom(100).Len() = %d, want 0", tl.Len())
	}
}

// TestCCDFMonotone: the CCDF is non-increasing everywhere, strictly
// decreasing over its stored support, for arbitrary inputs.
func TestCCDFMonotone(t *testing.T) {
	prop := func(raw []float64) bool {
		c := NewCCDF(raw)
		for i := 1; i < c.Len(); i++ {
			if c.X[i] <= c.X[i-1] || c.P[i] >= c.P[i-1] {
				return false
			}
		}
		for i := 0; i < c.Len(); i++ {
			if c.P[i] <= 0 || c.P[i] >= 1.0+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCCDFMassConservation: At(x) equals the exact fraction of samples
// strictly greater than x, for random samples and probes.
func TestCCDFMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Ceil(rng.Float64() * 20) // ties on purpose
	}
	c := NewCCDF(xs)
	for probe := 0.0; probe <= 22; probe += 0.5 {
		exact := 0
		for _, x := range xs {
			if x > probe {
				exact++
			}
		}
		want := float64(exact) / float64(len(xs))
		got := c.At(probe)
		// Beyond the max the CCDF clamps to its smallest stored mass.
		if probe >= c.X[c.Len()-1] {
			continue
		}
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("At(%v) = %v, exact fraction %v", probe, got, want)
		}
	}
}

func TestFitLineExact(t *testing.T) {
	// y = 3x - 2, exact fit.
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3*x[i] - 2
	}
	f, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 3, 1e-12) || !almostEqual(f.Intercept, -2, 1e-12) {
		t.Errorf("fit = %+v, want slope 3 intercept -2", f)
	}
	if !almostEqual(f.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", f.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = float64(i) / 10
		y[i] = -1.5*x[i] + 7 + rng.NormFloat64()*0.01
	}
	f, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope+1.5) > 0.01 {
		t.Errorf("Slope = %v, want ≈ -1.5", f.Slope)
	}
	if f.R2 < 0.999 {
		t.Errorf("R2 = %v, want ≈ 1 for tiny noise", f.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths: expected error")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point: expected error")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x: expected error")
	}
}

func TestFitLineConstantY(t *testing.T) {
	f, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope != 0 || f.R2 != 1 {
		t.Errorf("constant y: fit = %+v, want slope 0 R2 1", f)
	}
}
