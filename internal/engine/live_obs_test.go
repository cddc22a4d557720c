package engine

import (
	"errors"
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
	// Published when the accumulate stage is done with the batch.
	for deadline := time.Now().Add(10 * time.Second); lp.WatermarkLag() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := lp.WatermarkLag(); got != 30*time.Second {
		t.Errorf("lag after the first record = %v, want 30s", got)
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

// TestLivePipelineWatermarkLagAfterFailure: once the accumulate stage
// has seen its classify stage fail, the published lag stops moving: no
// seal refused in Close's flush or inside a batch, and no batch that
// seals nothing, changes it. Every interval handed over below seals 30s
// behind the watermark.
func TestLivePipelineWatermarkLagAfterFailure(t *testing.T) {
	const iv = time.Minute
	boom := errors.New("boom")
	p := netip.MustParsePrefix("10.0.0.0/24")
	newLink := func(t *testing.T, onResult func(Sealed) error) *LivePipeline {
		lp, err := NewLivePipeline(LiveLink{
			ID: "lag-fail", Start: start, Interval: iv, Window: 1, Config: oneFlowConfig, OnResult: onResult,
		})
		if err != nil {
			t.Fatal(err)
		}
		return lp
	}
	send := func(t *testing.T, lp *LivePipeline, ats ...time.Duration) {
		for _, at := range ats {
			if err := lp.Send(agg.Record{Prefix: p, Time: start.Add(at), Bits: 1e4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	closeFailed := func(t *testing.T, lp *LivePipeline) {
		if err := lp.Close(); !errors.Is(err, boom) {
			t.Fatalf("Close = %v, want boom", err)
		}
		if got := lp.WatermarkLag(); got != 30*time.Second {
			t.Errorf("lag after Close = %v, want the 30s published before the failure", got)
		}
	}

	t.Run("refused in the flush", func(t *testing.T) {
		// Interval 0's result fails. Close's flush then closes interval 1,
		// which is refused and leaves the accumulator at a zero lag.
		lp := newLink(t, func(Sealed) error { return boom })
		send(t, lp, 10*time.Second, iv+30*time.Second)
		for deadline := time.Now().Add(10 * time.Second); !lp.classifyFailed.Load() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if !lp.classifyFailed.Load() {
			t.Fatal("the classify stage never failed")
		}
		closeFailed(t, lp)
	})

	t.Run("refused in a batch", func(t *testing.T) {
		// Interval 0's result is held while intervals 1 and 2 are sealed,
		// interval 2 waiting for a transfer buffer, and two batches are
		// queued behind it: one that seals nothing and would publish 45s,
		// and one whose seal of interval 3 is refused and would publish
		// 50s. Only then does interval 0's result fail.
		gate := make(chan struct{})
		lp := newLink(t, func(s Sealed) error {
			if s.T == 0 {
				<-gate
				return boom
			}
			return nil
		})
		send(t, lp, 10*time.Second, iv+30*time.Second, 2*iv+30*time.Second, 3*iv+30*time.Second)
		for deadline := time.Now().Add(10 * time.Second); len(lp.ch) != 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		send(t, lp, 3*iv+45*time.Second, 4*iv+50*time.Second)
		close(gate)
		closeFailed(t, lp)
	})
}

// TestLivePipelineStageOverlap: the stage-overlap reading is the
// classify stage's busy time less the accumulate stage's waits for a
// transfer buffer that ended while it ran. Interval 0's hook holds a
// buffer while interval 1 holds the other and the accumulate stage waits
// to seal interval 2; the last interval, classified after every wait has
// been counted, overlaps for its whole busy time.
func TestLivePipelineStageOverlap(t *testing.T) {
	const iv = time.Minute
	gate := make(chan struct{})
	lp, err := NewLivePipeline(LiveLink{
		ID: "overlap", Start: start, Interval: iv, Window: 1, Config: oneFlowConfig,
		OnResult: func(s Sealed) error {
			if s.T == 0 {
				<-gate
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range oneFlowRecords(4, iv) {
		if err := lp.Send(rec); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // the accumulate stage waits for a buffer
	close(gate)
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := lp.LastOverlap(); got <= 0 {
		t.Errorf("last interval's overlap = %v, want its busy time", got)
	}
}
