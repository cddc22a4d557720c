package engine

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// TestLivePipelineMatchesRunStreamLink: pushing a record sequence
// through a long-lived LivePipeline must produce exactly the results
// run-to-completion streaming produces from a source yielding the same
// sequence — the determinism contract extended to the resident-daemon
// shape. Run with -race: the producer goroutine here crosses the Send
// boundary the way the daemon's UDP loop does.
func TestLivePipelineMatchesRunStreamLink(t *testing.T) {
	recs := seriesRecords(synthSeries(42, 150, 24))

	want := RunStreamLink(StreamLink{
		ID:       "live",
		Source:   &sliceSource{recs: recs},
		Start:    start,
		Interval: 5 * time.Minute,
		Config:   schemeConfig,
	})
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	var got []core.Result
	var lastStats agg.StreamStats
	lp, err := NewLivePipeline(LiveLink{
		ID:       "live",
		Start:    start,
		Interval: 5 * time.Minute,
		Buffer:   8, // small buffer so Send exercises backpressure
		Config:   schemeConfig,
		OnResult: func(tt int, at time.Time, res core.Result, stats agg.StreamStats) error {
			if tt != len(got) {
				t.Errorf("result for interval %d, want %d (in order, gap-free)", tt, len(got))
			}
			if want := start.Add(time.Duration(tt) * 5 * time.Minute); !at.Equal(want) {
				t.Errorf("interval %d at %v, want %v", tt, at, want)
			}
			got = append(got, res)
			lastStats = stats
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		for _, rec := range recs {
			if err := lp.Send(rec); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Results) {
		t.Fatalf("live results diverge from run-to-completion streaming: %d vs %d intervals", len(got), len(want.Results))
	}
	st := lp.Stats()
	if st.Records != uint64(len(recs)) || st.Late != 0 || st.FarFuture != 0 {
		t.Errorf("final stats = %+v, want %d records, no drops", st, len(recs))
	}
	if lastStats.Closed != st.Closed {
		t.Errorf("OnResult stats lag: last close saw %d closed, final %d", lastStats.Closed, st.Closed)
	}
}

// TestLivePipelineSendBatch: delivering the record sequence in
// datagram-sized batches through SendBatch must be indistinguishable
// from per-record Send — same results, full count, no drops — and a
// batch sent after failure must report zero enqueued.
func TestLivePipelineSendBatch(t *testing.T) {
	recs := seriesRecords(synthSeries(43, 120, 18))

	want := RunStreamLink(StreamLink{
		ID:       "batchsend",
		Source:   &sliceSource{recs: recs},
		Start:    start,
		Interval: 5 * time.Minute,
		Config:   schemeConfig,
	})
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	var got []core.Result
	lp, err := NewLivePipeline(LiveLink{
		ID:       "batchsend",
		Start:    start,
		Interval: 5 * time.Minute,
		Buffer:   8,
		Config:   schemeConfig,
		OnResult: func(tt int, at time.Time, res core.Result, stats agg.StreamStats) error {
			got = append(got, res)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 30 // one full v5 datagram
	for i := 0; i < len(recs); i += batch {
		end := min(i+batch, len(recs))
		sent, err := lp.SendBatch(recs[i:end])
		if err != nil {
			t.Fatal(err)
		}
		if sent != end-i {
			t.Fatalf("SendBatch enqueued %d of %d", sent, end-i)
		}
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Results) {
		t.Fatalf("batched sends diverge from streaming: %d vs %d intervals", len(got), len(want.Results))
	}
	if st := lp.Stats(); st.Records != uint64(len(recs)) || st.Late != 0 {
		t.Errorf("final stats = %+v, want %d records, no drops", st, len(recs))
	}

	// A failed link refuses whole batches up front: once SendBatch
	// observes the failure it enqueues nothing, and every record it did
	// accept is reconcilable as accumulated-or-dropped.
	boom := errors.New("boom")
	fl, err := NewLivePipeline(LiveLink{
		ID:       "batchfail",
		Start:    start,
		Interval: time.Minute,
		Window:   1,
		Buffer:   1,
		Config:   schemeConfig,
		OnResult: func(int, time.Time, core.Result, agg.StreamStats) error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	frecs := seriesRecords(synthSeries(7, 64, 4))
	accepted := 0
	var sendErr error
	for i := 0; i < len(frecs) && sendErr == nil; i += batch {
		end := min(i+batch, len(frecs))
		var n int
		n, sendErr = fl.SendBatch(frecs[i:end])
		accepted += n
		if sendErr != nil && n != 0 {
			t.Errorf("failed SendBatch enqueued %d records, want 0", n)
		}
	}
	if err := fl.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want boom", err)
	}
	if sendErr != nil && !errors.Is(sendErr, boom) {
		t.Errorf("SendBatch = %v, want boom", sendErr)
	}
	if got := fl.Stats().Records + fl.Dropped(); got != uint64(accepted) {
		t.Errorf("accumulated %d + dropped %d != %d accepted", fl.Stats().Records, fl.Dropped(), accepted)
	}
}

// TestLivePipelineFailureReleasesProducer: a mid-stream failure must
// fail the link, release producers blocked in Send, and keep reporting
// the first error.
func TestLivePipelineFailureReleasesProducer(t *testing.T) {
	boom := errors.New("boom")
	fired := 0
	lp, err := NewLivePipeline(LiveLink{
		ID:       "flaky",
		Start:    start,
		Interval: time.Minute,
		Window:   1,
		Buffer:   1,
		Config:   schemeConfig,
		OnResult: func(tt int, at time.Time, res core.Result, stats agg.StreamStats) error {
			fired++
			return boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := seriesRecords(synthSeries(7, 64, 4))
	var sendErr error
	sent := 0
	for _, rec := range recs {
		if sendErr = lp.Send(rec); sendErr != nil {
			break
		}
		sent++
	}
	// Whether or not a Send observed the failure in flight, Close must
	// surface it.
	if err := lp.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want boom", err)
	}
	// Every accepted record is accounted for: it reached the
	// accumulator or was counted as dropped by the failure drain. (How
	// the sent records split between the two depends on queue timing.)
	if got := lp.Stats().Records + lp.Dropped(); got != uint64(sent) {
		t.Errorf("accumulated %d + dropped %d != %d sent", lp.Stats().Records, lp.Dropped(), sent)
	}
	if sendErr != nil && !errors.Is(sendErr, boom) {
		t.Errorf("Send = %v, want boom", sendErr)
	}
	if fired != 1 {
		t.Errorf("OnResult fired %d times after failing, want 1", fired)
	}
	if err := lp.Close(); !errors.Is(err, boom) {
		t.Errorf("second Close = %v, want boom", err)
	}
}

func TestLivePipelineValidation(t *testing.T) {
	ok := func(tt int, at time.Time, res core.Result, stats agg.StreamStats) error { return nil }
	if _, err := NewLivePipeline(LiveLink{ID: "x", Interval: time.Minute, Config: schemeConfig}); err == nil {
		t.Error("nil OnResult accepted")
	}
	if _, err := NewLivePipeline(LiveLink{ID: "x", Config: schemeConfig, OnResult: ok}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewLivePipeline(LiveLink{ID: "x", Interval: time.Minute, OnResult: ok}); err == nil {
		t.Error("nil config factory accepted")
	}
}

func TestLivePipelineStatsBeforeClose(t *testing.T) {
	lp, err := NewLivePipeline(LiveLink{
		ID: "x", Interval: time.Minute, Config: schemeConfig,
		OnResult: func(int, time.Time, core.Result, agg.StreamStats) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Stats before Close did not panic")
			}
		}()
		lp.Stats()
	}()
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if st := lp.Stats(); st.Records != 0 || st.Closed != 0 {
		t.Errorf("empty link stats = %+v", st)
	}
}

// oneFlowConfig classifies single-flow intervals (the stall tests feed
// one record per interval).
func oneFlowConfig() (core.Config, error) {
	return core.Config{
		Detector:   constDetector{100},
		Alpha:      0.5,
		Classifier: core.SingleFeatureClassifier{},
		MinFlows:   1,
	}, nil
}

// TestLivePipelineStalls: a full record queue makes Send block — and
// the block is counted, surfacing backpressure instead of swallowing
// it. The classify stage is gated shut so the whole pipeline wedges
// deterministically: transfer buffers fill, the accumulate stage
// blocks on the seal handoff, the record queue fills, and further
// sends must stall.
func TestLivePipelineStalls(t *testing.T) {
	iv := time.Minute
	gate := make(chan struct{})
	gated := false
	lp, err := NewLivePipeline(LiveLink{
		ID:       "stall",
		Start:    start,
		Interval: iv,
		Window:   1,
		Buffer:   1,
		Config:   oneFlowConfig,
		OnResult: func(tt int, at time.Time, res core.Result, stats agg.StreamStats) error {
			if !gated {
				gated = true
				<-gate
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Stalls() != 0 {
		t.Fatalf("fresh link stalls = %d", lp.Stalls())
	}
	// Each record opens a new interval, sealing the previous one. With
	// the classify stage parked, at most window+transfer+queue records
	// can be absorbed; 16 sends must overflow and stall.
	done := make(chan struct{})
	go func() {
		defer close(done)
		p := synthSeries(1, 4, 1).Flows()[0]
		for i := 0; i < 16; i++ {
			rec := agg.Record{Prefix: p, Time: start.Add(time.Duration(i) * iv), Bits: 1e4}
			if err := lp.Send(rec); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	// The pipeline is wedged until the gate opens, and 16 records exceed
	// its total buffering, so a stall MUST register; wait for it, then
	// release the gate so the sender can finish.
	waitForStall(t, lp)
	close(gate)
	<-done
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if lp.Stalls() == 0 {
		t.Fatal("no stalls counted despite a wedged pipeline and 16 sends into a 1-slot queue")
	}
}

// waitForStall blocks until the link's stall counter moves (the
// producer is then provably parked inside a counted blocking send).
func waitForStall(t *testing.T, lp *LivePipeline) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for lp.Stalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for a stall")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLivePipelineSendBatchStalls mirrors the stall contract for the
// batch path: records are never dropped, the blocking waits are
// counted.
func TestLivePipelineSendBatchStalls(t *testing.T) {
	iv := time.Minute
	gate := make(chan struct{})
	gated := false
	lp, err := NewLivePipeline(LiveLink{
		ID:       "stall-batch",
		Start:    start,
		Interval: iv,
		Window:   1,
		Buffer:   1,
		Config:   oneFlowConfig,
		OnResult: func(int, time.Time, core.Result, agg.StreamStats) error {
			if !gated {
				gated = true
				<-gate
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]agg.Record, 16)
	p := synthSeries(1, 4, 1).Flows()[0]
	for i := range recs {
		recs[i] = agg.Record{Prefix: p, Time: start.Add(time.Duration(i) * iv), Bits: 1e4}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sent, err := lp.SendBatch(recs)
		if err != nil || sent != len(recs) {
			t.Errorf("SendBatch = (%d, %v), want (%d, nil)", sent, err, len(recs))
		}
	}()
	waitForStall(t, lp)
	close(gate)
	<-done
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if lp.Stalls() == 0 {
		t.Fatal("no stalls counted despite a wedged pipeline")
	}
	if got := lp.Stats().Records; got != uint64(len(recs)) {
		t.Fatalf("accumulator saw %d records, want %d (stalls must not drop)", got, len(recs))
	}
}
