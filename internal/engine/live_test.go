package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// TestLivePipelineFailureReleasesProducer: a mid-stream failure must
// fail the link, release producers blocked in Send or SendBatch, and
// keep reporting the first error.
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
		OnResult: func(s Sealed) error {
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

	// A producer parked waiting for a free slab when the link fails must
	// come back with the link's error too — the accumulate stage returns
	// every slab on the failure path — and the books must balance with the
	// failure landing in the middle of a slab: that slab's records up to
	// and including the one that hit the failure are in Stats, the rest
	// of it and the slab queued behind it are Dropped.
	t.Run("blocked on the slab free list", func(t *testing.T) {
		iv := time.Minute
		gate := make(chan struct{})
		lp, err := NewLivePipeline(LiveLink{
			ID:       "flaky-blocked",
			Start:    start,
			Interval: iv,
			Window:   1,
			Buffer:   64, // two slabs
			Config:   oneFlowConfig,
			OnResult: func(Sealed) error {
				<-gate
				return boom
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// One record per interval, eight to a batch. The first batch wedges
		// the accumulate stage at its fourth record (classify is parked in
		// OnResult with both transfer buffers out), the second is queued, the
		// third blocks for a slab.
		const batch = 8
		recs := oneFlowRecords(3*batch, iv)
		type outcome struct {
			accepted int
			err      error
		}
		res := make(chan outcome, 1)
		go func() {
			var o outcome
			for i := 0; i < len(recs) && o.err == nil; i += batch {
				var n int
				n, o.err = lp.SendBatch(recs[i : i+batch])
				o.accepted += n
			}
			res <- o
		}()
		waitForStall(t, lp)
		close(gate) // interval 0's OnResult now fails the link
		var o outcome
		select {
		case o = <-res:
		case <-time.After(10 * time.Second):
			t.Fatal("producer blocked on the slab free list was not released by the failure")
		}
		if !errors.Is(o.err, boom) {
			t.Errorf("blocked SendBatch = %v, want boom", o.err)
		}
		if o.accepted != 2*batch {
			t.Errorf("accepted %d records, want the %d of the two batches sent before the stall", o.accepted, 2*batch)
		}
		if err := lp.Close(); !errors.Is(err, boom) {
			t.Fatalf("Close = %v, want boom", err)
		}
		// The wedged fourth record completes (its seal was already past the
		// failure check); one of the next few hits the failed classify stage.
		if st := lp.Stats(); st.Records < 4 || st.Records >= batch {
			t.Errorf("accumulator saw %d records, want 4..%d (the failure lands mid-slab)", st.Records, batch-1)
		}
		if got := lp.Stats().Records + lp.Dropped(); got != uint64(o.accepted) {
			t.Errorf("accumulated %d + dropped %d != %d accepted", lp.Stats().Records, lp.Dropped(), o.accepted)
		}
	})
}

func TestLivePipelineValidation(t *testing.T) {
	ok := func(s Sealed) error { return nil }
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
		OnResult: func(Sealed) error { return nil },
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
		Classifier: &core.SingleFeatureClassifier{},
		MinFlows:   1,
	}, nil
}

// oneFlowDatagram returns a full v5 datagram's worth of records — 30
// one-second spans of one flow, all inside interval 0.
func oneFlowDatagram() []agg.Record {
	p := synthSeries(1, 4, 1).Flows()[0]
	recs := make([]agg.Record, 30)
	for i := range recs {
		recs[i] = agg.Record{Prefix: p, Time: start.Add(time.Duration(i) * time.Second), Span: time.Second, Bits: 1e4}
	}
	return recs
}

// oneFlowRecords returns n point records of one flow, one per interval
// from interval 0: under Window 1 each seals the interval before it.
func oneFlowRecords(n int, iv time.Duration) []agg.Record {
	p := synthSeries(1, 4, 1).Flows()[0]
	recs := make([]agg.Record, n)
	for i := range recs {
		recs[i] = agg.Record{Prefix: p, Time: start.Add(time.Duration(i) * iv), Bits: 1e4}
	}
	return recs
}

// TestLivePipelineStalls: a full record queue makes Send block — and
// the block is counted, surfacing backpressure instead of swallowing
// it. The classify stage is gated shut so the whole pipeline wedges
// deterministically: transfer buffers fill, the accumulate stage
// blocks on the seal handoff holding the queue's one slab, and further
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
		OnResult: func(s Sealed) error {
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
	// the classify stage parked, at most window+transfer records can be
	// absorbed before the accumulate stage parks too, mid-slab; 16 sends
	// (one slab each) must overflow and stall.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, rec := range oneFlowRecords(16, iv) {
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
		t.Fatal("no stalls counted despite a wedged pipeline and 16 sends into a 1-slab queue")
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
// counted. The unit of queue space is the slab, so it takes batches —
// not records — to overflow it: one call carrying every record would
// fit the first slabs and never wait. The same wedge pins the queue's
// footprint: nothing allocated until the first send, never more than
// ceil(Buffer/32) slabs however hard the producer pushes — at a small
// Buffer and at the default, where only a link backed up this far may
// hold DefaultLiveBuffer/32 of them.
func TestLivePipelineSendBatchStalls(t *testing.T) {
	for _, tc := range []struct {
		buffer int
		slabs  int32
	}{
		{33, 2}, // rounds up to two slabs
		{0, DefaultLiveBuffer / liveSlab},
	} {
		t.Run(fmt.Sprintf("buffer=%d", tc.buffer), func(t *testing.T) {
			iv := time.Minute
			gate := make(chan struct{})
			gated := false
			lp, err := NewLivePipeline(LiveLink{
				ID:       "stall-batch",
				Start:    start,
				Interval: iv,
				Window:   1,
				Buffer:   tc.buffer,
				Config:   oneFlowConfig,
				OnResult: func(Sealed) error {
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
			if got := lp.slabs.Load(); got != 0 {
				t.Fatalf("fresh link has allocated %d slabs, want 0", got)
			}
			// The first batch wedges the accumulate stage at its fourth record
			// (as in TestLivePipelineStalls), the next slabs-1 wait in the
			// queue, the one after finds every slab taken.
			const batch = 4
			recs := oneFlowRecords(batch*(int(tc.slabs)+2), iv)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < len(recs); i += batch {
					sent, err := lp.SendBatch(recs[i : i+batch])
					if err != nil || sent != batch {
						t.Errorf("SendBatch = (%d, %v), want (%d, nil)", sent, err, batch)
					}
				}
			}()
			waitForStall(t, lp)
			if got := lp.slabs.Load(); got != tc.slabs {
				t.Errorf("saturated link has allocated %d slabs, want ceil(Buffer/32) = %d", got, tc.slabs)
			}
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
			if got := lp.slabs.Load(); got != tc.slabs {
				t.Errorf("link ended with %d slabs allocated, want %d", got, tc.slabs)
			}
		})
	}
}

// TestLivePipelineSendBatchAllocs: once the queue's slabs exist, handing
// a full datagram to a healthy link allocates nothing — the records are
// copied into a recycled slab, and the accumulate stage returns it.
func TestLivePipelineSendBatchAllocs(t *testing.T) {
	lp, err := NewLivePipeline(LiveLink{
		ID:       "allocs",
		Start:    start,
		Interval: time.Minute,
		Buffer:   32, // one slab: the first send allocates it, every later one reuses it
		Config:   oneFlowConfig,
		OnResult: func(Sealed) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// One flow, one interval: the accumulate stage's steady state, which
	// allocates nothing either (AllocsPerRun counts every goroutine).
	recs := oneFlowDatagram()
	send := func() {
		if sent, err := lp.SendBatch(recs); err != nil || sent != len(recs) {
			t.Fatalf("SendBatch = (%d, %v)", sent, err)
		}
	}
	send()
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Errorf("warm SendBatch allocates %v times per 30-record datagram, want 0", n)
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLivePipelineQueueIsLazy: at the default depth a link whose worker
// keeps up cycles one or two slabs however long it runs, so raising
// DefaultLiveBuffer cannot raise an idle link's memory unnoticed (the
// link that does back up is TestLivePipelineSendBatchStalls' second
// case).
func TestLivePipelineQueueIsLazy(t *testing.T) {
	lp, err := NewLivePipeline(LiveLink{
		ID:       "lazy",
		Start:    start,
		Interval: time.Minute,
		Config:   oneFlowConfig,
		OnResult: func(Sealed) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	datagram := oneFlowDatagram()
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 1000; i++ {
		if sent, err := lp.SendBatch(datagram); err != nil || sent != len(datagram) {
			t.Fatalf("SendBatch = (%d, %v)", sent, err)
		}
		// Every slab that exists is back on the free list: the worker has
		// caught up.
		for len(lp.freeSlabs) != int(lp.slabs.Load()) {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the worker to return the slab")
			}
			runtime.Gosched()
		}
	}
	if got := lp.slabs.Load(); got > 2 {
		t.Errorf("a link that never backed up has allocated %d slabs, want at most 2", got)
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
}
