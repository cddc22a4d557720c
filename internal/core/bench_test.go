package core

import (
	"math"
	"math/rand"
	"testing"
)

// benchSnapshot builds a realistic interval snapshot: lognormal body
// with a Pareto tail, n flows, sorted by construction.
func benchSnapshot(n int, seed int64) *FlowSnapshot {
	rng := rand.New(rand.NewSource(seed))
	s := NewFlowSnapshot(n)
	for i := 0; i < n; i++ {
		bw := math.Exp(rng.NormFloat64() * 1.2)
		if rng.Float64() < 0.04 {
			bw = 20 * math.Pow(rng.Float64(), -1/1.9)
		}
		s.Append(pfx(i), bw*1e4)
	}
	return s
}

// BenchmarkConstantLoadDetect6k times one detection as Pipeline.Step
// runs it. The sorted column is the snapshot's, built once per interval
// and shared by every pipeline stepping it, so its sort is not timed.
func BenchmarkConstantLoadDetect6k(b *testing.B) {
	snap := benchSnapshot(6500, 1)
	d, _ := NewConstantLoadDetector(0.8)
	bw, sorted := snap.Bandwidths(), snap.SortedBandwidths()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DetectThreshold(bw, sorted); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAestDetect6k times one aest detection as Pipeline.Step runs
// it; as above, the sorted column is the snapshot's and its sort is not
// timed.
func BenchmarkAestDetect6k(b *testing.B) {
	snap := benchSnapshot(6500, 2)
	d := NewAestDetector()
	bw, sorted := snap.Bandwidths(), snap.SortedBandwidths()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DetectThreshold(bw, sorted); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleFeatureClassify6k(b *testing.B) {
	snap := benchSnapshot(6500, 3)
	c := &SingleFeatureClassifier{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(snap, 5e4)
	}
}

func BenchmarkLatentHeatClassify6k(b *testing.B) {
	snap := benchSnapshot(6500, 4)
	tb := NewFlowTable()
	tb.FillIDs(snap)
	c := boundLatent(b, 12, tb)
	// Warm the history so the steady-state cost is measured.
	for i := 0; i < 14; i++ {
		c.Classify(snap, 5e4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(snap, 5e4)
	}
	b.ReportMetric(float64(c.TrackedFlows()), "tracked-flows")
}

// BenchmarkLatentHeatClassify6kAttached is two classifiers reading one
// shared window, as two cells of a RunMatrix group do: an op is one
// Observe and both Classify calls, to set against two ops of the owning
// benchmark above.
func BenchmarkLatentHeatClassify6kAttached(b *testing.B) {
	snap := benchSnapshot(6500, 4)
	tb := NewFlowTable()
	tb.Pin()
	tb.FillIDs(snap)
	cs := []*LatentHeatClassifier{boundLatent(b, 12, tb), boundLatent(b, 12, tb)}
	wins := ShareLatentWindows(cs)
	if len(wins) != 1 {
		b.Fatalf("%d shared windows, want 1", len(wins))
	}
	step := func() {
		wins[0].Observe(snap)
		cs[0].Classify(snap, 5e4)
		cs[1].Classify(snap, 4e4)
	}
	for i := 0; i < 14; i++ {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(cs[0].TrackedFlows()), "tracked-flows")
}

func BenchmarkPipelineStep6k(b *testing.B) {
	snap := benchSnapshot(6500, 5)
	det, _ := NewConstantLoadDetector(0.8)
	lh, _ := NewLatentHeatClassifier(12)
	p, _ := NewPipeline(Config{Detector: det, Alpha: 0.5, Classifier: lh})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Step(snap); err != nil {
			b.Fatal(err)
		}
	}
}
