package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/report/reporttest"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	if g.Value() != 0 {
		t.Errorf("zero gauge = %v", g.Value())
	}
	g.Set(2.5)
	g.Set(-7)
	if g.Value() != -7 {
		t.Errorf("gauge = %v, want -7", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0001, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	// le semantics: v ≤ bound. 0.5,1 → bucket0; 1.0001,10 → bucket1;
	// 99,100 → bucket2; 101,1e9 → overflow.
	want := []uint64{2, 2, 2, 2}
	got := make([]uint64, 4)
	h.snapshot(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if want := 0.5 + 1 + 1.0001 + 10 + 99 + 100 + 101 + 1e9; h.Sum() != want {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 1.6e-5, 6.4e-5}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ExpBuckets(0, 2, 3) did not panic")
			}
		}()
		ExpBuckets(0, 2, 3)
	}()
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("d_intervals_total", "Intervals.", report.Label{Name: "link", Value: "a@0"})
	g := r.NewGauge("d_lag_seconds", "Lag.", report.Label{Name: "link", Value: "a@0"})
	h := r.NewHistogramSeries("d_step_seconds", "Step.", []float64{0.01, 0.1},
		report.Label{Name: "link", Value: "a@0"})
	c.Add(3)
	g.Set(0.25)
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(5)

	var buf bytes.Buffer
	m := report.NewMetricsWriter(&buf)
	r.Render(m)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP d_intervals_total Intervals.
# TYPE d_intervals_total counter
d_intervals_total{link="a@0"} 3
# HELP d_lag_seconds Lag.
# TYPE d_lag_seconds gauge
d_lag_seconds{link="a@0"} 0.25
# HELP d_step_seconds Step.
# TYPE d_step_seconds histogram
d_step_seconds_bucket{link="a@0",le="0.01"} 2
d_step_seconds_bucket{link="a@0",le="0.1"} 2
d_step_seconds_bucket{link="a@0",le="+Inf"} 3
d_step_seconds_sum{link="a@0"} 5.01
d_step_seconds_count{link="a@0"} 3
`
	if got := buf.String(); got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
	if err := reporttest.LintExposition(&buf); err != nil {
		t.Errorf("rendered page failed lint: %v", err)
	}
}

func TestRegistryRenderByteStable(t *testing.T) {
	r := NewRegistry()
	for _, link := range []string{"b@1", "a@0"} { // registration order, not sorted
		NewLinkMetrics(r, link, DefaultStageBounds())
	}
	render := func() string {
		var buf bytes.Buffer
		m := report.NewMetricsWriter(&buf)
		r.Render(m)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("two quiet renders differ")
	}
	if err := reporttest.LintExposition(strings.NewReader(a)); err != nil {
		t.Errorf("page failed lint: %v", err)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("m", "h")
	mustPanic("type mismatch", func() { r.NewGauge("m", "h") })
	mustPanic("duplicate series", func() { r.NewCounter("m", "h") })
	r.NewHistogramSeries("h", "h", []float64{1, 2}, report.Label{Name: "link", Value: "a"})
	mustPanic("bounds mismatch", func() {
		r.NewHistogramSeries("h", "h", []float64{1, 3}, report.Label{Name: "link", Value: "b"})
	})
}

// TestRegistryConcurrentRenderAndRegister: scrapes racing link
// registration must not tear (run under -race). The producer registers a
// fixed number of links and the scraper renders until it has finished,
// so the page is bounded whatever the host: an unbounded producer
// against a fixed number of renders outgrew the renders on two CPUs.
func TestRegistryConcurrentRenderAndRegister(t *testing.T) {
	const links = 200
	r := NewRegistry()
	NewLinkMetrics(r, "seed@0", DefaultStageBounds())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < links; i++ {
			NewLinkMetrics(r, fmt.Sprintf("link%d@0", i), DefaultStageBounds())
		}
	}()
	for registering, i := true, 0; registering; i++ {
		select {
		case <-done:
			registering = false // one last render, of the complete registry
		default:
		}
		var buf bytes.Buffer
		m := report.NewMetricsWriter(&buf)
		r.Render(m)
		if err := m.Err(); err != nil {
			t.Errorf("render %d: %v", i, err)
		}
		if err := reporttest.LintExposition(&buf); err != nil {
			t.Errorf("render %d failed lint: %v", i, err)
		}
	}
}
