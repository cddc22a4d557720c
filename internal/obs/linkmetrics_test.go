package obs

import (
	"testing"

	"repro/internal/core"
)

func TestLinkMetricsObserveStep(t *testing.T) {
	r := NewRegistry()
	m := NewLinkMetrics(r, "a@0", DefaultStageBounds())
	m.ObserveStep(core.StepObservation{
		StepNanos: 2_000_000, DetectNanos: 1_000_000, ClassifyNanos: 500_000,
	})
	m.ObserveStep(core.StepObservation{Interval: 1, StepNanos: 3_000_000})
	if m.Step.Count() != 2 || m.Detect.Count() != 2 || m.Classify.Count() != 2 {
		t.Errorf("histogram counts = %d/%d/%d, want 2 each", m.Step.Count(), m.Detect.Count(), m.Classify.Count())
	}
	if got := m.Step.Sum(); got != 0.005 {
		t.Errorf("step sum = %v, want 0.005", got)
	}
	if got := m.Detect.Sum(); got != 0.001 {
		t.Errorf("detect sum = %v, want 0.001", got)
	}
	// Churn and the raw threshold are the link owner's to write: a step's
	// timings leave them alone.
	if m.Promoted.Value() != 0 || m.Demoted.Value() != 0 || m.RawThreshold.Value() != 0 {
		t.Errorf("ObserveStep moved churn +%d/-%d or the raw threshold %v", m.Promoted.Value(), m.Demoted.Value(), m.RawThreshold.Value())
	}
	if o := m.Last(); o.Interval != 1 || o.StepNanos != 3_000_000 {
		t.Errorf("Last() = %+v, want the second observation", o)
	}
}

// The hot-path operations must not allocate: they run per interval
// inside the live pipeline, whose step is pinned at zero allocations.
func TestHotPathAllocs(t *testing.T) {
	h := NewHistogram(DefaultStageBounds())
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.001) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
	r := NewRegistry()
	m := NewLinkMetrics(r, "a@0", DefaultStageBounds())
	o := core.StepObservation{StepNanos: 1000, DetectNanos: 400, ClassifyNanos: 300}
	if n := testing.AllocsPerRun(100, func() { m.ObserveStep(o) }); n != 0 {
		t.Errorf("LinkMetrics.ObserveStep allocates %v/op", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultStageBounds())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkObserveStep(b *testing.B) {
	r := NewRegistry()
	m := NewLinkMetrics(r, "a@0", DefaultStageBounds())
	o := core.StepObservation{StepNanos: 150_000, DetectNanos: 90_000, ClassifyNanos: 40_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ObserveStep(o)
	}
}
