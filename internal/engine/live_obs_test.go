package engine

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

type constDetector struct{ theta float64 }

func (d constDetector) DetectThreshold(_, _ []float64) (float64, error) { return d.theta, nil }
func (d constDetector) Name() string                                    { return "const" }

// TestLivePipelineWatermarkLag: the accumulate stage publishes the
// watermark lag at every seal, readable from any goroutine; a result
// hook reads the lag its interval was sealed under from its Sealed (the
// classify stage runs behind the accumulate stage, so the fresh
// WatermarkLag may already reflect later records). Run with -race: both
// readings cross the stage boundary like a scrape does.
func TestLivePipelineWatermarkLag(t *testing.T) {
	const iv = time.Minute
	p := netip.MustParsePrefix("10.0.0.0/24")
	var lags []time.Duration
	lp, err := NewLivePipeline(LiveLink{
		ID:       "lag",
		Start:    start,
		Interval: iv,
		Window:   2,
		Config: func() (core.Config, error) {
			return core.Config{
				Detector:   constDetector{100},
				Alpha:      0.5,
				Classifier: &core.SingleFeatureClassifier{},
				MinFlows:   1,
			}, nil
		},
		OnResult: func(s Sealed) error {
			lags = append(lags, s.SealLag)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := lp.WatermarkLag(); got != 0 {
		t.Errorf("fresh link lag = %v", got)
	}
	// Interval 0 gets bits 30s in; the next record lands in interval 2,
	// sealing interval 0 with the watermark 1m10s past its right edge.
	if err := lp.Send(agg.Record{Prefix: p, Time: start.Add(30 * time.Second), Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	if err := lp.Send(agg.Record{Prefix: p, Time: start.Add(2*iv + 10*time.Second), Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	// Close flushes intervals 1 and 2: at interval 1's seal the edge is
	// 10s behind the watermark; at interval 2's it has caught up.
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{iv + 10*time.Second, 10 * time.Second, 0}
	if len(lags) != len(want) {
		t.Fatalf("sealed %d intervals, want %d (lags %v)", len(lags), len(want), lags)
	}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("interval %d sealed with lag %v, want %v", i, lags[i], want[i])
		}
	}
	if got := lp.WatermarkLag(); got != 0 {
		t.Errorf("post-flush lag = %v, want 0", got)
	}
}
