package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// DefaultLiveBuffer is the default Send queue capacity of a
// LivePipeline — enough to absorb a burst of decoded NetFlow records
// (a full v5 datagram is 30) without the producer blocking, small
// enough that backpressure reaches the producer before memory does.
const DefaultLiveBuffer = 1024

// liveTransferBuffers is the number of sealed-snapshot buffers cycling
// between the accumulate and classify stages. Two is exactly double
// buffering: interval t classifies out of one buffer while interval
// t+1 seals into the other; a third would only add latency, not
// throughput, because seals are strictly ordered.
const liveTransferBuffers = 2

// errClassifyFailed marks an Emit aborted because the classify stage
// already failed; the stage recorded the real error itself, so the
// accumulate stage must not wrap this sentinel over it.
var errClassifyFailed = errors.New("engine: classify stage failed")

// LiveLink configures one long-lived streaming link. It is the
// resident-daemon counterpart of StreamLink: where a StreamLink drains
// a finite RecordSource to completion, a LiveLink accepts records
// pushed from the outside (a UDP ingest loop) for as long as the
// process lives, delivering classification results through a hook as
// intervals close.
type LiveLink struct {
	// ID names the link in errors.
	ID string
	// Start is the left edge of interval 0; the zero value aligns to
	// the first record.
	Start time.Time
	// Interval is the measurement interval Δ. Required.
	Interval time.Duration
	// Window is the accumulator's open-interval count (0 selects
	// agg.DefaultStreamWindow). Size it to the source's
	// out-of-orderness — e.g. a NetFlow active timeout.
	Window int
	// Buffer is the Send queue capacity; 0 selects DefaultLiveBuffer.
	Buffer int
	// Config returns a fresh pipeline configuration for this link —
	// the same fresh-instances-per-link determinism contract as every
	// other engine mode.
	Config func() (core.Config, error)
	// OnResult receives each closed interval's classification in order:
	// the interval index, its left-edge wall time (from the
	// accumulator's resolved anchor — the configured Start, or the
	// first record when aligning automatically) and the accumulator's
	// counters as of that close. It runs on the link's classify
	// goroutine; an error fails the link. Required.
	OnResult func(t int, at time.Time, res core.Result, stats agg.StreamStats) error
}

// sealedInterval is the unit of work crossing the accumulate→classify
// stage boundary: one sealed interval's snapshot (in a transfer buffer
// the classify stage returns after use) plus the interval's identity
// and the accumulator counters captured at seal time.
type sealedInterval struct {
	t     int
	at    time.Time
	stats agg.StreamStats
	lag   time.Duration // watermark lag as of this seal
	snap  *core.FlowSnapshot
}

// LivePipeline is a long-lived per-link classification pipeline, run
// as two stages: an accumulate goroutine owns the StreamAccumulator
// and consumes records pushed via Send; a classify goroutine owns the
// core.Pipeline and consumes sealed interval snapshots, firing
// OnResult per interval. The stages are joined by a bounded channel of
// double-buffered snapshot copies, so interval t+1 accumulates while
// interval t classifies.
//
// The determinism contract survives the overlap: sealed intervals
// are copied out in seal order and classified strictly in that order
// by a single consumer, and each stage owns its state exclusively
// (the accumulator's tables never touch the classifier's), so a
// LivePipeline fed a record sequence produces exactly the results
// RunStreamLink would produce from a source yielding the same
// sequence — regardless of how many producer goroutines exist
// upstream of Send.
//
// Lifecycle: NewLivePipeline starts both stages; Send pushes records
// (blocking when the buffer is full — backpressure, not drops, with
// the stall counted in Stalls); Close flushes the accumulator, drains
// the classify stage and waits for both to exit. Send and Close must
// not be called concurrently with each other; after a failure Send
// returns the link's error and drops the record.
type LivePipeline struct {
	id string
	ch chan agg.Record

	done      chan struct{} // closed when both stages have exited
	closeOnce sync.Once
	closeErr  error

	// failed is the Send hot path's view of err: readers in a sharded
	// ingest front-end check one atomic load per record instead of
	// taking mu, so a healthy link's Send never contends on anything
	// but the channel itself.
	failed atomic.Bool

	// lag is the accumulator's watermark lag (nanoseconds), published
	// by the accumulate stage after every accepted record and at every
	// interval seal, so scrape handlers can read link freshness without
	// touching stage-owned state.
	lag atomic.Int64

	// stalls counts Send/SendBatch calls that found the record queue
	// full and had to block — the backpressure signal a silent blocking
	// send used to swallow. One increment per blocking wait, not per
	// record queued behind it.
	stalls atomic.Uint64

	// emitWait accumulates the time the accumulate stage spent blocked
	// waiting for a free transfer buffer (i.e. waiting on classify);
	// lastOverlap is the classify stage's most recent estimate of how
	// much of its busy time genuinely overlapped accumulation.
	emitWait    atomic.Int64
	lastOverlap atomic.Int64

	// sealLag is the watermark lag the most recently classified
	// interval was sealed under, stored by the classify stage right
	// before its OnResult fires — the per-interval lag a result hook
	// should record (WatermarkLag may already reflect later records
	// by the time classification runs).
	sealLag atomic.Int64

	// classifyFailed tells the accumulate stage to stop sealing: the
	// classify goroutine recorded the link error and is draining.
	classifyFailed atomic.Bool

	sealed       chan sealedInterval
	free         chan *core.FlowSnapshot
	classifyDone chan struct{}

	mu  sync.Mutex
	err error

	// Accumulate-stage-owned; read by other goroutines only after done
	// is closed (Stats, Dropped) — the channel close/receive pair
	// orders those accesses.
	acc     *agg.StreamAccumulator
	dropped uint64
}

// NewLivePipeline validates the link, builds its private accumulator
// and pipeline, and starts the accumulate and classify stages.
func NewLivePipeline(l LiveLink) (*LivePipeline, error) {
	pipe, err := newPipeline(l.ID, l.Config)
	if err != nil {
		return nil, err
	}
	// No Table: the accumulator's flow identities are private to the
	// accumulate stage, which also releases their rows as flows go quiet.
	// The classify stage runs concurrently and owns the core pipeline's
	// table, so sharing one table across the stage boundary would race;
	// the classify path re-interns each sealed column via FillIDs.
	acc, err := agg.NewStreamAccumulator(agg.StreamConfig{
		Start:    l.Start,
		Interval: l.Interval,
		Window:   l.Window,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: link %q: %w", l.ID, err)
	}
	if l.OnResult == nil {
		return nil, fmt.Errorf("engine: link %q: nil OnResult", l.ID)
	}
	buffer := l.Buffer
	if buffer <= 0 {
		buffer = DefaultLiveBuffer
	}
	p := &LivePipeline{
		id:           l.ID,
		ch:           make(chan agg.Record, buffer),
		done:         make(chan struct{}),
		sealed:       make(chan sealedInterval, liveTransferBuffers),
		free:         make(chan *core.FlowSnapshot, liveTransferBuffers),
		classifyDone: make(chan struct{}),
		acc:          acc,
	}
	for i := 0; i < liveTransferBuffers; i++ {
		p.free <- core.NewFlowSnapshot(0)
	}
	acc.Emit = func(t int, snap *core.FlowSnapshot) error {
		if p.classifyFailed.Load() {
			return errClassifyFailed
		}
		var buf *core.FlowSnapshot
		select {
		case buf = <-p.free:
		default:
			// Classify still owns both buffers: the stall here is the
			// pipeline bubble the stage-overlap metric subtracts out.
			waitStart := time.Now()
			buf = <-p.free
			p.emitWait.Add(time.Since(waitStart).Nanoseconds())
		}
		buf.CopyFrom(snap)
		lag := acc.WatermarkLag()
		p.lag.Store(int64(lag))
		p.sealed <- sealedInterval{t: t, at: acc.IntervalTime(t), stats: acc.Stats(), lag: lag, snap: buf}
		return nil
	}
	go p.classify(pipe, l.OnResult)
	go p.run()
	return p, nil
}

// classify is the downstream stage: consume sealed intervals in order,
// step the core pipeline and fire OnResult. Every transfer buffer is
// recycled on every path — success, failure, post-failure drain — so
// the accumulate stage can never wedge waiting for a buffer.
func (p *LivePipeline) classify(pipe *core.Pipeline, onResult func(int, time.Time, core.Result, agg.StreamStats) error) {
	defer close(p.classifyDone)
	for m := range p.sealed {
		if p.classifyFailed.Load() {
			p.free <- m.snap
			continue
		}
		p.sealLag.Store(int64(m.lag))
		waitBefore := p.emitWait.Load()
		busyStart := time.Now()
		res, err := pipe.StepSnapshot(m.t, m.snap)
		if err == nil {
			err = onResult(m.t, m.at, res, m.stats)
		}
		busy := time.Since(busyStart).Nanoseconds()
		p.free <- m.snap
		if err != nil {
			p.classifyFailed.Store(true)
			p.setErr(fmt.Errorf("engine: link %q: %w", p.id, err))
			continue
		}
		// Overlap = classify busy time minus however long accumulation
		// sat blocked on a transfer buffer during it: the portion of
		// this interval's classification that ran concurrently with
		// useful accumulate-stage work.
		if overlap := busy - (p.emitWait.Load() - waitBefore); overlap > 0 {
			p.lastOverlap.Store(overlap)
		} else {
			p.lastOverlap.Store(0)
		}
	}
}

// run is the accumulate stage: consume until the channel closes, then
// flush, then shut the classify stage down. On a mid-stream failure it
// keeps draining (and dropping) so producers blocked in Send are
// released rather than wedged forever.
func (p *LivePipeline) run() {
	for rec := range p.ch {
		err := p.acc.Add(rec)
		p.lag.Store(int64(p.acc.WatermarkLag()))
		if err != nil {
			if !errors.Is(err, errClassifyFailed) {
				p.setErr(fmt.Errorf("engine: link %q: %w", p.id, err))
			}
			// Drain to unblock producers. Everything still queued —
			// including records a Send slipped in before observing the
			// error — is discarded and counted, so the producer can
			// reconcile its accounting after Close. (The triggering
			// record itself reached the accumulator and is already in
			// its Stats.)
			for range p.ch {
				p.dropped++
			}
			p.finish()
			return
		}
	}
	if err := p.acc.Flush(); err != nil {
		if !errors.Is(err, errClassifyFailed) {
			p.setErr(fmt.Errorf("engine: link %q: flush: %w", p.id, err))
		}
	}
	p.lag.Store(int64(p.acc.WatermarkLag()))
	p.finish()
}

// finish closes the stage channel and waits for classify to drain,
// then signals done.
func (p *LivePipeline) finish() {
	close(p.sealed)
	<-p.classifyDone
	close(p.done)
}

// WatermarkLag returns the link's interval watermark lag — how far the
// newest accepted record's bit-carrying instant has run ahead of the
// sealed edge (agg.StreamAccumulator.WatermarkLag), as published at the
// last record or seal. Safe from any goroutine at any time: it is one
// atomic load, so HTTP scrape handlers read it while the worker runs.
func (p *LivePipeline) WatermarkLag() time.Duration {
	return time.Duration(p.lag.Load())
}

// LastSealLag returns the watermark lag the most recently classified
// interval was sealed under. Inside an OnResult hook it is exactly
// that interval's seal-time lag — the value to record per interval —
// where WatermarkLag may already reflect records accumulated since the
// seal (the stages overlap). Safe from any goroutine at any time.
func (p *LivePipeline) LastSealLag() time.Duration {
	return time.Duration(p.sealLag.Load())
}

// Stalls returns how many Send/SendBatch calls found the record queue
// full and had to block for space — the link's backpressure counter.
// Safe from any goroutine at any time.
func (p *LivePipeline) Stalls() uint64 { return p.stalls.Load() }

// LastOverlap returns the classify stage's most recent stage-overlap
// estimate: how much of the last interval's classification ran
// concurrently with accumulation (zero when the stages ran in
// lockstep). Safe from any goroutine at any time.
func (p *LivePipeline) LastOverlap() time.Duration {
	return time.Duration(p.lastOverlap.Load())
}

// Send pushes one record into the link, blocking when the buffer is
// full (counting the stall). After the link has failed, Send drops the
// record and returns the failure. Must not be called after (or
// concurrently with) Close.
func (p *LivePipeline) Send(rec agg.Record) error {
	if p.failed.Load() {
		return p.Err()
	}
	select {
	case p.ch <- rec:
	default:
		p.stalls.Add(1)
		p.ch <- rec
	}
	return nil
}

// SendBatch pushes the records of one decoded datagram in order,
// checking for link failure once per batch instead of once per record.
// A full queue blocks (backpressure, not drops) and increments the
// stall counter once per blocking wait, so the daemon can see
// ingest-side pressure instead of readers silently wedging. It returns
// how many records were enqueued; on failure the remainder was dropped
// and err reports why, so the caller can account sent/dropped exactly.
// Same concurrency contract as Send.
func (p *LivePipeline) SendBatch(recs []agg.Record) (sent int, err error) {
	if p.failed.Load() {
		return 0, p.Err()
	}
	for _, rec := range recs {
		select {
		case p.ch <- rec:
		default:
			p.stalls.Add(1)
			p.ch <- rec
		}
		sent++
	}
	return sent, nil
}

// Close flushes remaining open intervals, stops both stages and
// returns the link's first error (nil for a clean run). Safe to call
// more than once; later calls return the first call's result.
func (p *LivePipeline) Close() error {
	p.closeOnce.Do(func() {
		close(p.ch)
		<-p.done
		p.closeErr = p.Err()
	})
	return p.closeErr
}

// Err returns the link's first failure, nil while healthy. A failed
// link stays failed: the pipeline's interval sequence is broken and a
// fresh LivePipeline is the only way forward.
func (p *LivePipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *LivePipeline) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

// Stats returns the accumulator's final counters. Valid only after
// Close has returned; calling it earlier would race the worker.
func (p *LivePipeline) Stats() agg.StreamStats {
	select {
	case <-p.done:
		return p.acc.Stats()
	default:
		panic("engine: LivePipeline.Stats before Close")
	}
}

// Dropped returns the number of records that were accepted by Send but
// discarded before reaching the accumulator when the link failed
// (everything queued behind the record that triggered the failure), so
// a producer can reconcile its accounting: Stats().Records + Dropped()
// equals the records accepted. Zero for a healthy link. Valid only
// after Close has returned.
func (p *LivePipeline) Dropped() uint64 {
	select {
	case <-p.done:
		return p.dropped
	default:
		panic("engine: LivePipeline.Dropped before Close")
	}
}
