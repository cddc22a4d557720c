package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	if f.Cap() != 3 || f.Len() != 0 {
		t.Fatalf("fresh recorder cap=%d len=%d", f.Cap(), f.Len())
	}
	for i := 0; i < 2; i++ {
		f.Record(IntervalTrace{Interval: i})
	}
	got := f.Snapshot()
	if len(got) != 2 || got[0].Interval != 0 || got[1].Interval != 1 {
		t.Fatalf("partial snapshot = %+v", got)
	}
	for i := 2; i < 7; i++ {
		f.Record(IntervalTrace{Interval: i})
	}
	got = f.Snapshot()
	if len(got) != 3 {
		t.Fatalf("full snapshot len = %d", len(got))
	}
	for i, tr := range got {
		if tr.Interval != 4+i { // oldest retained is 4: 7 recorded, last 3 kept
			t.Errorf("snapshot[%d].Interval = %d, want %d", i, tr.Interval, 4+i)
		}
	}
}

func TestFlightRecorderMinimumCapacity(t *testing.T) {
	f := NewFlightRecorder(0)
	f.Record(IntervalTrace{Interval: 1})
	f.Record(IntervalTrace{Interval: 2})
	got := f.Snapshot()
	if len(got) != 1 || got[0].Interval != 2 {
		t.Errorf("snapshot = %+v, want just interval 2", got)
	}
}

func TestFlightRecorderJSONL(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(IntervalTrace{Interval: 0, StepNanos: 1500, RawThreshold: 2e6, ActiveFlows: 9})
	f.Record(IntervalTrace{Interval: 1, Promoted: 2, WatermarkLagNanos: 7})
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []IntervalTrace
	for sc.Scan() {
		var tr IntervalTrace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("line %d: %v", len(lines), err)
		}
		lines = append(lines, tr)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Interval != 0 || lines[0].StepNanos != 1500 || lines[0].RawThreshold != 2e6 || lines[0].ActiveFlows != 9 {
		t.Errorf("line 0 round-trip = %+v", lines[0])
	}
	if lines[1].Promoted != 2 || lines[1].WatermarkLagNanos != 7 {
		t.Errorf("line 1 round-trip = %+v", lines[1])
	}
	// Field names are a stable debug contract.
	var raw map[string]any
	var buf2 bytes.Buffer
	if err := f.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(buf2.Bytes(), []byte("\n"))
	if err := json.Unmarshal(first, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"interval", "sealed_unix_nanos", "step_nanos", "raw_threshold_bps", "watermark_lag_nanos", "promoted", "demoted"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("JSONL missing field %q", key)
		}
	}
}

func TestLinkMetricsObserveStep(t *testing.T) {
	r := NewRegistry()
	m := NewLinkMetrics(r, "a@0", DefaultStageBounds())
	m.ObserveStep(core.StepObservation{
		StepNanos: 2_000_000, DetectNanos: 1_000_000, ClassifyNanos: 500_000,
		RawThreshold: 3e6, Elephants: 4, Promoted: 2, Demoted: 1,
	})
	m.ObserveStep(core.StepObservation{
		StepNanos: 3_000_000, RawThreshold: 4e6, Elephants: 5, Promoted: 1,
	})
	if m.Step.Count() != 2 || m.Detect.Count() != 2 || m.Classify.Count() != 2 {
		t.Errorf("histogram counts = %d/%d/%d, want 2 each", m.Step.Count(), m.Detect.Count(), m.Classify.Count())
	}
	if got := m.Step.Sum(); got != 0.005 {
		t.Errorf("step sum = %v, want 0.005", got)
	}
	if m.Promoted.Value() != 3 || m.Demoted.Value() != 1 {
		t.Errorf("churn totals = +%d/-%d, want +3/-1", m.Promoted.Value(), m.Demoted.Value())
	}
	if m.RawThreshold.Value() != 4e6 {
		t.Errorf("raw-threshold gauge = %v, want last observation's 4e6", m.RawThreshold.Value())
	}
	if o := m.Last(); o.Elephants != 5 || o.Promoted != 1 {
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
	o := core.StepObservation{StepNanos: 1000, DetectNanos: 400, ClassifyNanos: 300, Promoted: 1}
	if n := testing.AllocsPerRun(100, func() { m.ObserveStep(o) }); n != 0 {
		t.Errorf("LinkMetrics.ObserveStep allocates %v/op", n)
	}
	f := NewFlightRecorder(8)
	tr := IntervalTrace{Interval: 1, StepNanos: 1000}
	if n := testing.AllocsPerRun(100, func() { f.Record(tr) }); n != 0 {
		t.Errorf("FlightRecorder.Record allocates %v/op", n)
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
	o := core.StepObservation{StepNanos: 150_000, DetectNanos: 90_000, ClassifyNanos: 40_000, Promoted: 1, Demoted: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ObserveStep(o)
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(256)
	tr := IntervalTrace{Interval: 1, StepNanos: 150_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Interval = i
		f.Record(tr)
	}
}
