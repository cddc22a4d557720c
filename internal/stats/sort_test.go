package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// nearby returns a double sharing x's top 33 bits — every bit the radix
// passes look at — with random low bits.
func nearby(rng *rand.Rand, x float64) float64 {
	top := math.Float64bits(x) >> radixKeyShift << radixKeyShift
	return math.Float64frombits(top | uint64(rng.Int63())&(1<<radixKeyShift-1))
}

// sharedTopBits draws n doubles agreeing on their top 33 bits: the radix
// passes leave them in input order, so the whole sort falls to the
// fix-up.
func sharedTopBits(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = nearby(rng, 1e4)
	}
	return xs
}

// sortShapes is the input space SortPositive is pinned on, shared by the
// table test and the fuzzer's seed corpus: sizes straddling the
// small-input cutoff, magnitudes spanning every exponent digit, heavy
// duplication, presorted input, and — the fix-up's cases — elements
// that tie on every radix digit, in one run of the whole input and in
// many runs straddling the insertion-sort bound.
func sortShapes() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	shapes := make(map[string][]float64)
	gen := func(name string, sizes []int, f func(n int) float64) {
		for _, n := range sizes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = f(n)
			}
			shapes[name+"/"+strconv.Itoa(n)] = xs
		}
	}
	sizes := []int{1, 2, 100, 127, 128, 129, 1000, 6000}
	gen("lognormal", sizes, func(int) float64 { return math.Exp(rng.NormFloat64()*1.2) * 1e4 })
	gen("wide-range", sizes, func(int) float64 { return math.Pow(10, rng.Float64()*30-15) })
	gen("heavy-ties", sizes, func(int) float64 { return float64(rng.Intn(8) + 1) })
	gen("any-bits", sizes, func(int) float64 { return positiveFinite(uint64(rng.Int63())) })
	gen("subnormals", []int{129, 1000}, func(int) float64 { return positiveFinite(uint64(rng.Int63()) >> 12) })
	gen("runs", []int{129, 6000}, func(n int) float64 {
		// ≈10 elements to a run of shared top bits, Poisson-spread to
		// either side of the insertion bound, each run's members
		// scattered over the input.
		return nearby(rng, 1e3*float64(1+rng.Intn(n/10+1)))
	})
	for _, n := range []int{129, 6000} {
		xs := sharedTopBits(rng, n)
		shapes["shared-top/"+strconv.Itoa(n)] = xs
		asc := slices.Clone(xs)
		slices.Sort(asc)
		shapes["shared-top-sorted/"+strconv.Itoa(n)] = asc
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		shapes["shared-top-reversed/"+strconv.Itoa(n)] = desc
	}
	asc := slices.Clone(shapes["lognormal/6000"])
	slices.Sort(asc)
	shapes["sorted/6000"] = asc
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shapes["reversed/6000"] = desc
	return shapes
}

// positiveFinite maps any 64 bits onto a strictly positive finite
// double: sign cleared, an all-ones exponent (Inf/NaN) lowered, zero
// raised to the smallest subnormal.
func positiveFinite(b uint64) float64 {
	b &^= 1 << 63
	if b>>52 == 0x7ff {
		b &^= 1 << 62
	}
	if b == 0 {
		b = 1
	}
	return math.Float64frombits(b)
}

// TestSortPositiveMatchesSort pins the radix sort against the stdlib
// comparison sort on every shape of sortShapes.
func TestSortPositiveMatchesSort(t *testing.T) {
	for name, xs := range sortShapes() {
		want := slices.Clone(xs)
		sort.Float64s(want)
		got := slices.Clone(xs)
		SortPositive(got, make([]float64, len(xs)))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SortPositive diverged from sort.Float64s", name)
		}
	}
}

// TestSortPositiveNearEqualStaysFast: input whose every element ties on
// all three radix digits must reach the comparison-sort fallback, not
// the insertion sort — which at this size would take tens of seconds
// where the fallback takes milliseconds, so the bound below is loose by
// three orders of magnitude either way.
func TestSortPositiveNearEqualStaysFast(t *testing.T) {
	xs := sharedTopBits(rand.New(rand.NewSource(5)), 1<<18)
	want := slices.Clone(xs)
	slices.Sort(want)
	start := time.Now()
	SortPositive(xs, make([]float64, len(xs)))
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("sorting %d near-equal values took %v: the fix-up went quadratic", len(xs), d)
	}
	if !slices.Equal(xs, want) {
		t.Fatal("SortPositive diverged from slices.Sort on near-equal input")
	}
}

// FuzzSortPositive: any byte string, read as positive finite doubles,
// sorts exactly as slices.Sort sorts it.
func FuzzSortPositive(f *testing.F) {
	for _, xs := range sortShapes() {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = positiveFinite(binary.LittleEndian.Uint64(b[8*i:]))
		}
		want := slices.Clone(xs)
		slices.Sort(want)
		SortPositive(xs, make([]float64, len(xs)))
		if !slices.Equal(xs, want) {
			t.Fatalf("SortPositive diverged from slices.Sort on %d values", len(xs))
		}
	})
}
