package baseline

import (
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/core"
)

// benchPrefixes returns n distinct /24 prefixes.
func benchPrefixes(n int) []netip.Prefix {
	ps := make([]netip.Prefix, n)
	for i := range ps {
		ps[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 24)
	}
	return ps
}

// benchWeights returns heavy-tailed weights — a Pareto-ish body plus a
// handful of planted elephants heavy enough to cross the sketches'
// default total/(k+1) cut — so the bench exercises the free-slot
// path, the eviction path and a non-empty verdict.
func benchWeights(n int) []float64 {
	rng := rand.New(rand.NewSource(3))
	ws := make([]float64, n)
	for i := range ws {
		u := rng.Float64()
		ws[i] = 1e3 / (0.01 + u*u) // Pareto-ish body
	}
	for i := 0; i < 8 && i < n; i++ {
		ws[i*(n/8)] = 1e7
	}
	return ws
}

// BenchmarkSketchClassifierStep measures the full per-interval
// classification cost of the sketch baselines, mirroring the core
// detectors' pipeline benchmarks.
func BenchmarkSketchClassifierStep(b *testing.B) {
	const flows = 4096
	ps, ws := benchPrefixes(flows), benchWeights(flows)
	snap := core.NewFlowSnapshot(flows)
	for i := range ps {
		snap.Append(ps[i], ws[i])
	}
	for _, mk := range []struct {
		name string
		cls  func() (*SketchClassifier, error)
	}{
		{"misragries", func() (*SketchClassifier, error) { return NewMisraGriesClassifier(64) }},
		{"spacesaving", func() (*SketchClassifier, error) { return NewSpaceSavingClassifier(64) }},
	} {
		cls, err := mk.cls()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := cls.Classify(snap, 0)
				if len(v.Indices) == 0 {
					b.Fatal("no elephants")
				}
			}
		})
	}
}
