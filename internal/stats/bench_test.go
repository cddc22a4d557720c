package stats

import (
	"math/rand"
	"testing"
)

func benchSample(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	return pareto(rng, n, 1.5, 1)
}

func BenchmarkAest10k(b *testing.B) {
	xs := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Aest(xs)
		if !res.TailFound {
			b.Fatal("no tail on pure Pareto")
		}
	}
}

func BenchmarkNewCCDF10k(b *testing.B) {
	xs := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCCDF(xs)
		if c.Len() == 0 {
			b.Fatal("empty CCDF")
		}
	}
}

func BenchmarkHill10k(b *testing.B) {
	xs := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hill(xs, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGini10k(b *testing.B) {
	xs := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Gini(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarize10k(b *testing.B) {
	xs := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}
