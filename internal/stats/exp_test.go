package stats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ulps is the distance between two finite floats of one sign, in units
// in the last place.
func ulps(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		return -d
	}
	return d
}

// bigExp is e**x to 300 bits by the Taylor series of e**|x|, rounded to
// float64.
func bigExp(x float64) float64 {
	const prec = 300
	bx := new(big.Float).SetPrec(prec).SetFloat64(math.Abs(x))
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	eps := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), -prec)
	for n := int64(1); term.Cmp(eps) > 0; n++ {
		term.Mul(term, bx)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
	}
	if x < 0 {
		sum.Quo(new(big.Float).SetPrec(prec).SetInt64(1), sum)
	}
	f, _ := sum.Float64()
	return f
}

// Exp is within one ulp of e**x, and so within two of math.Exp, whose
// own last bit differs by CPU: math.Exp(5.195326151675175) is one ulp
// above the correctly rounded value and Exp one below.
func TestExpMatchesMath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		x := 20*rng.Float64() - 10
		got := Exp(x)
		if d := ulps(got, math.Exp(x)); d > 2 {
			t.Fatalf("Exp(%v) = %v, math.Exp = %v: %d ulps apart", x, got, math.Exp(x), d)
		}
		if i%500 == 0 {
			if want := bigExp(x); ulps(got, want) > 1 {
				t.Fatalf("Exp(%v) = %v, e**x = %v: %d ulps apart", x, got, want, ulps(got, want))
			}
		}
	}
	// The edges of each branch.
	for _, x := range []float64{
		1e-9, -1e-9, 1.0 / (1 << 28), -1.0 / (1 << 28), 0.5, -0.5, 1, -1,
		709.782712893383973096, 709.78, -708, -720, -745.1,
	} {
		if got, want := Exp(x), bigExp(x); ulps(got, want) > 1 {
			t.Errorf("Exp(%v) = %v, e**x = %v: %d ulps apart", x, got, want, ulps(got, want))
		}
	}
	for _, c := range []struct{ x, want float64 }{
		{0, 1}, {math.Copysign(0, -1), 1}, {710, math.Inf(1)}, {math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0}, {-745.13321910194110842, 5e-324}, {-746, 0},
	} {
		if got := Exp(c.x); got != c.want {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
}
