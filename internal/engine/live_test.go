package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// streamed is the live path's reference: the same records run to
// completion through RunStreaming on one worker.
func streamed(t *testing.T, id string, recs []agg.Record) LinkResult {
	t.Helper()
	out, err := (&MultiLinkEngine{Workers: 1}).RunStreaming([]StreamLink{{
		ID:       id,
		Source:   &sliceSource{recs: recs},
		Start:    start,
		Interval: 5 * time.Minute,
		Config:   schemeConfig,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	return out[0]
}

// TestLivePipelineMatchesRunStreamLink: pushing a record sequence
// through a long-lived LivePipeline must produce exactly the results
// run-to-completion streaming produces from a source yielding the same
// sequence — the determinism contract extended to the resident-daemon
// shape — however the sequence is cut into sends: one record at a time
// (Send), datagram-sized batches, and every case around the 32-record
// slab boundary, including batches that split across slabs. Run with
// -race: the producer goroutine here crosses the send boundary the way
// the daemon's UDP loop does.
func TestLivePipelineMatchesRunStreamLink(t *testing.T) {
	recs := seriesRecords(synthSeries(42, 150, 24))

	want := streamed(t, "live", recs)

	for _, batch := range []int{1, 7, 30, 31, 32, 33, 100} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			var got []core.Result
			var lastStats agg.StreamStats
			lp, err := NewLivePipeline(LiveLink{
				ID:       "live",
				Start:    start,
				Interval: 5 * time.Minute,
				Buffer:   8, // one slab, so every send after the first exercises backpressure
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
				for i := 0; i < len(recs); i += batch {
					if batch == 1 {
						if err := lp.Send(recs[i]); err != nil {
							errCh <- err
							return
						}
						continue
					}
					end := min(i+batch, len(recs))
					if sent, err := lp.SendBatch(recs[i:end]); err != nil || sent != end-i {
						errCh <- fmt.Errorf("SendBatch(%d records) = (%d, %v)", end-i, sent, err)
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
		})
	}
}

// flowRecorder is a single-feature classifier that also keeps every
// interval's per-flow bandwidth column, for tests that check what
// reached the classify stage flow by flow.
type flowRecorder struct {
	core.SingleFeatureClassifier
	intervals []map[netip.Prefix]float64
}

func (r *flowRecorder) Classify(snap *core.FlowSnapshot, thresholdHat float64) core.Verdict {
	col := make(map[netip.Prefix]float64, snap.Len())
	for i := 0; i < snap.Len(); i++ {
		col[snap.Key(i)] = snap.Bandwidth(i)
	}
	r.intervals = append(r.intervals, col)
	return r.SingleFeatureClassifier.Classify(snap, thresholdHat)
}

// TestLivePipelineConcurrentProducers is the shared-socket fallback's
// shape: several readers SendBatch into one link at once. Every record
// must reach the accumulator exactly once — none lost or doubled in the
// slab hand-off — so each flow's per-interval bandwidth is exactly the
// sum of its records. Bits are whole multiples of the interval, which
// keeps every float sum exact whatever order the producers interleave
// in; the window spans the run, so no producer running ahead can make
// another's records late. Run with -race.
func TestLivePipelineConcurrentProducers(t *testing.T) {
	const (
		producers = 4
		flowsEach = 16
		intervals = 6
		perCell   = 5 // records per flow per interval
		iv        = time.Minute
	)
	rec := &flowRecorder{}
	lp, err := NewLivePipeline(LiveLink{
		ID:       "fanout",
		Start:    start,
		Interval: iv,
		Window:   intervals,
		Buffer:   64, // two slabs between four producers: they contend for them
		Config: func() (core.Config, error) {
			return core.Config{Detector: constDetector{100}, Alpha: 0.5, Classifier: rec, MinFlows: 1}, nil
		},
		OnResult: func(int, time.Time, core.Result, agg.StreamStats) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	flow := func(g, f int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(g), byte(f), 0}), 24)
	}
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		var recs []agg.Record
		for tt := 0; tt < intervals; tt++ {
			for k := 0; k < perCell; k++ {
				for f := 0; f < flowsEach; f++ {
					recs = append(recs, agg.Record{
						Prefix: flow(g, f),
						Time:   start.Add(time.Duration(tt)*iv + time.Duration(k)*time.Second),
						Bits:   float64(60 * (1 + g + f + k)),
					})
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A batch size coprime to the slab size, so batches straddle
			// slabs differently on every producer.
			for i := 0; i < len(recs); i += 7 {
				end := min(i+7, len(recs))
				if sent, err := lp.SendBatch(recs[i:end]); err != nil || sent != end-i {
					t.Errorf("SendBatch = (%d, %v), want (%d, nil)", sent, err, end-i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	total := producers * flowsEach * intervals * perCell
	if st := lp.Stats(); st.Records != uint64(total) || st.InWindow != uint64(total) || st.Late != 0 {
		t.Errorf("final stats = %+v, want %d records all in window", st, total)
	}
	if len(rec.intervals) != intervals {
		t.Fatalf("classified %d intervals, want %d", len(rec.intervals), intervals)
	}
	for tt, col := range rec.intervals {
		if len(col) != producers*flowsEach {
			t.Errorf("interval %d carries %d flows, want %d", tt, len(col), producers*flowsEach)
		}
		for g := 0; g < producers; g++ {
			for f := 0; f < flowsEach; f++ {
				want := 0.0
				for k := 0; k < perCell; k++ {
					want += float64(1 + g + f + k)
				}
				if got := col[flow(g, f)]; got != want {
					t.Errorf("interval %d flow %v = %v bit/s, want %v", tt, flow(g, f), got, want)
				}
			}
		}
	}
}

// TestLivePipelineSendBatch: delivering the record sequence in
// datagram-sized batches through SendBatch must be indistinguishable
// from per-record Send — same results, full count, no drops — and a
// batch sent after failure must report zero enqueued.
func TestLivePipelineSendBatch(t *testing.T) {
	recs := seriesRecords(synthSeries(43, 120, 18))

	want := streamed(t, "batchsend", recs)

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
			OnResult: func(int, time.Time, core.Result, agg.StreamStats) error {
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
		OnResult: func(int, time.Time, core.Result, agg.StreamStats) error { return nil },
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
		OnResult: func(int, time.Time, core.Result, agg.StreamStats) error { return nil },
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

// TestLivePipelineConservationAtDefaultBuffer: the conservation law at
// the default queue depth, with the classify stage failing while
// producers are mid-burst and the queue holds whatever it holds: every
// record SendBatch accepted is in the accumulator's Stats or counted
// Dropped. Run with -race -count=10 — how the accepted records split
// between the two is timing, their sum is not.
func TestLivePipelineConservationAtDefaultBuffer(t *testing.T) {
	boom := errors.New("boom")
	lp, err := NewLivePipeline(LiveLink{
		ID:       "burst",
		Start:    start,
		Interval: 5 * time.Minute,
		Config:   schemeConfig,
		OnResult: func(tt int, _ time.Time, _ core.Result, _ agg.StreamStats) error {
			if tt == 2 {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two producers, each bursting the whole trace in datagram-sized
	// batches as fast as it can; a duplicate record is just more bits.
	recs := seriesRecords(synthSeries(11, 200, 24))
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(recs); i += 30 {
				n, err := lp.SendBatch(recs[i:min(i+30, len(recs))])
				accepted.Add(uint64(n))
				if err != nil {
					if !errors.Is(err, boom) {
						t.Errorf("SendBatch = %v, want boom", err)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := lp.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want boom", err)
	}
	if got := lp.Stats().Records + lp.Dropped(); got != accepted.Load() {
		t.Errorf("accumulated %d + dropped %d != %d accepted", lp.Stats().Records, lp.Dropped(), accepted.Load())
	}
	if lp.Dropped() == 0 && accepted.Load() == 2*uint64(len(recs)) {
		t.Error("the failure dropped nothing and refused nothing: it did not land mid-burst")
	}
}
