package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mixedSample draws a lognormal body with a Pareto tail — the workload
// shape the aest detector sees per interval.
func mixedSample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		if rng.Float64() < 0.04 {
			xs[i] = 20 * math.Pow(rng.Float64(), -1/1.9) * 1e4
		} else {
			xs[i] = math.Exp(rng.NormFloat64()*1.2) * 1e4
		}
	}
	return xs
}

// TestAestScratchMatchesPackage pins the arena path against the
// package-level entry point: identical AestResults on every seed, and
// a single scratch reused across calls must not perturb later results.
func TestAestScratchMatchesPackage(t *testing.T) {
	var scratch AestScratch
	for seed := int64(0); seed < 12; seed++ {
		xs := mixedSample(2000+int(seed)*500, seed)
		want := Aest(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		got := scratch.AestSorted(xs, sorted)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: scratch AestSorted diverged\nwant %+v\ngot  %+v", seed, want, got)
		}
	}
}

func TestAggregateInto(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	wants := map[int][]float64{1: xs, 2: {3, 7, 11}, 3: {6, 15}, 4: {10}}
	for m := 1; m <= 4; m++ {
		want := wants[m]
		got := AggregateInto(nil, xs, m)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("m=%d: AggregateInto = %v, want %v", m, got, want)
		}
		// Appends after existing elements, reusing capacity.
		dst := make([]float64, 1, 16)
		dst[0] = -1
		got = AggregateInto(dst, xs, m)
		if got[0] != -1 || !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("m=%d: AggregateInto with prefix = %v, want [-1 %v...]", m, got, want)
		}
		if &got[0] != &dst[0] {
			t.Fatalf("m=%d: AggregateInto reallocated despite sufficient capacity", m)
		}
	}
}

func TestAggregateIntoPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AggregateInto(m=0) did not panic")
		}
	}()
	AggregateInto(nil, []float64{1}, 0)
}

// TestAestScratchSteadyStateAllocs pins the warm arena path: repeated
// calls on same-shaped input must not allocate.
func TestAestScratchSteadyStateAllocs(t *testing.T) {
	xs := mixedSample(6000, 9)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var scratch AestScratch
	scratch.AestSorted(xs, sorted)
	allocs := testing.AllocsPerRun(5, func() {
		scratch.AestSorted(xs, sorted)
	})
	if allocs != 0 {
		t.Fatalf("warm scratch AestSorted allocates %v per run, want 0", allocs)
	}
}
