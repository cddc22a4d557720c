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

// DefaultLiveBuffer is the default record queue capacity of a
// LivePipeline, in records: 128 batches, each holding one full v5
// datagram. At worst that is 321 KiB a link (128 slabs of 2 568 bytes;
// 336 KiB as the allocator rounds them), and only a link that has backed
// up that far pays it, from then on: slabs are allocated as the backlog
// first needs them and kept, so a link whose worker keeps up holds one
// or two (TestLivePipelineQueueIsLazy).
//
// The depth is measured (ARCHITECTURE.md, Live hand-off budget), and
// what it buys is the reader not parking: a reader serves every exporter
// hashed to its socket, and while it waits for one link's free slab it
// drains the socket for none of them. On a host with fewer idle cores
// than hot goroutines the worker a send has just readied waits in the
// reader's own run queue until the reader blocks, so the two alternate
// on one core a queue-length at a time, and a queue shorter than the
// burst the reader finds waiting in its socket — bounded by the granted
// SO_RCVBUF or by the senders' windows — stalls it inside every burst:
// ≈700 stalls per million records at 1024, ≈270 at 2048, ≈100 here,
// ≈45 at 8192, where throughput was no longer resolvably higher and a
// result was older when published. Backpressure still reaches the
// producer before memory does.
const DefaultLiveBuffer = 4096

// liveSlab is how many records one slab — the unit that crosses the
// producer→accumulate queue — holds: a full v5 datagram (30) rounded up
// to a power of two, so the daemon's one SendBatch per datagram is one
// copy and one channel send.
const liveSlab = 32

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
// process lives, handing each interval to one hook as it closes: its
// Sealed, whose consumer needs nothing else from the pipeline (the
// daemon's serve.LinkState is that hook).
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
	// Buffer is the record queue capacity in records, rounded up to whole
	// 32-record batches; 0 selects DefaultLiveBuffer.
	Buffer int
	// Config returns a fresh pipeline configuration for this link —
	// the same fresh-instances-per-link determinism contract as every
	// other engine mode. The pipeline observes its own steps, so a
	// configured Observer is replaced; the hook reads Sealed.Step.
	Config func() (core.Config, error)
	// OnResult receives each closed interval, classified, in order. It
	// runs on the link's classify goroutine; an error fails the link.
	// Required.
	OnResult func(Sealed) error
}

// Sealed is one closed interval as a LivePipeline hands it to its
// OnResult hook: everything the pipeline knows of the interval, in one
// value. The stage overlap is not in it — the classify stage measures an
// interval's overlap only after its hook returns (LastOverlap).
type Sealed struct {
	// T is the interval index; At its left-edge wall time (from the
	// accumulator's resolved anchor — the configured Start, or the
	// first record when aligning automatically).
	T  int
	At time.Time
	// Result is the interval's classification.
	Result core.Result
	// Stats are the accumulator's counters as of the seal.
	Stats agg.StreamStats
	// Step is where the interval's step spent its time.
	Step core.StepObservation
	// SealLag is the watermark lag the interval sealed under; the
	// pipeline's WatermarkLag may already reflect later records (the
	// stages overlap).
	SealLag time.Duration
}

// recordSlab is the unit of work crossing the producer→accumulate
// boundary: one batch of up to liveSlab records, copied in by SendBatch
// and read in place by the accumulate stage, which returns the slab to
// the free list after use.
type recordSlab struct {
	n    int
	recs [liveSlab]agg.Record
}

// sealedInterval is the unit of work crossing the accumulate→classify
// stage boundary: one sealed interval's snapshot (in a transfer buffer
// the classify stage returns after use) plus what the seal knows of the
// interval — the rest of its Sealed, which the classify stage completes.
type sealedInterval struct {
	t     int
	at    time.Time
	stats agg.StreamStats
	lag   time.Duration // watermark lag as of this seal
	snap  *core.FlowSnapshot
}

// stepObserver is a LivePipeline's own stage observer: its pipeline's
// Step fills it on the classify goroutine, and the classify stage copies
// it into the same interval's Sealed.
type stepObserver struct{ last core.StepObservation }

func (o *stepObserver) ObserveStep(s core.StepObservation) { o.last = s }

// LivePipeline is a long-lived per-link classification pipeline, run
// as two stages: an accumulate goroutine owns the StreamAccumulator
// and consumes the record batches SendBatch queues; a classify
// goroutine owns the core.Pipeline, observes its steps itself and
// consumes sealed interval snapshots, handing OnResult each interval
// whole — one Sealed carrying the result, the counters, the step's
// timings and the seal lag. The stages are joined by a bounded channel
// of double-buffered snapshot copies, so interval t+1 accumulates while
// interval t classifies.
//
// The determinism contract survives the overlap: sealed intervals
// are copied out in seal order and classified strictly in that order
// by a single consumer, and each stage owns its state exclusively
// (the accumulator's tables never touch the classifier's), so a
// LivePipeline fed a record sequence produces exactly the results
// RunStreaming would produce from a source yielding the same
// sequence — regardless of how many producer goroutines exist
// upstream of Send.
//
// Lifecycle: NewLivePipeline starts both stages; SendBatch (and Send,
// its one-record form) pushes records, blocking when every batch of the
// queue is in use — backpressure, not drops, with the wait counted in
// Stalls; Close flushes the accumulator, drains the classify stage and
// waits for both to exit. Sends may come from several goroutines at
// once but must not be concurrent with Close; after a failure they
// return the link's error and drop the records.
type LivePipeline struct {
	id string

	// Records cross to the accumulate stage a batch at a time and by
	// reference: a producer takes a slab from freeSlabs (or allocates one
	// while the queue is below its capacity), fills it and sends it on ch; the
	// accumulate stage returns it to freeSlabs on every path — success,
	// failure, post-failure drain — so a producer waiting for one can
	// never wedge. Both channels have room for every slab that can exist
	// (their capacity is the bound), so neither the send on ch nor the
	// return can block: the one place a producer waits is the receive
	// from freeSlabs.
	ch        chan *recordSlab
	freeSlabs chan *recordSlab
	slabs     atomic.Int32 // allocated so far, ≤ cap(freeSlabs)

	done      chan struct{} // closed when both stages have exited
	closeOnce sync.Once
	closeErr  error

	// failed is the send path's view of err: readers in a sharded ingest
	// front-end check one atomic load per batch instead of taking mu, so
	// a healthy link's SendBatch never contends on anything but the two
	// channels.
	failed atomic.Bool

	// lag is the accumulator's watermark lag (nanoseconds), published
	// by the accumulate stage after every batch and at every interval
	// seal, so scrape handlers can read link freshness without touching
	// stage-owned state.
	lag atomic.Int64

	// stalls counts the times a producer found every batch of the queue
	// in use and had to block for one — the backpressure signal a silent
	// blocking send would swallow. One increment per blocking wait, not
	// per record (or batch) queued behind it.
	stalls atomic.Uint64

	// emitWait accumulates the time the accumulate stage spent blocked
	// waiting for a free transfer buffer (i.e. waiting on classify);
	// lastOverlap is the classify stage's most recent estimate of how
	// much of its busy time genuinely overlapped accumulation.
	emitWait    atomic.Int64
	lastOverlap atomic.Int64

	// classifyFailed tells the accumulate stage to stop sealing: the
	// classify goroutine recorded the link error and is draining.
	classifyFailed atomic.Bool

	sealed       chan sealedInterval
	free         chan *core.FlowSnapshot
	classifyDone chan struct{}

	mu  sync.Mutex
	err error

	// step is classify-stage-owned: the pipeline's observer.
	step stepObserver

	// Accumulate-stage-owned; read by other goroutines only after done
	// is closed (Stats, Dropped) — the channel close/receive pair
	// orders those accesses.
	acc     *agg.StreamAccumulator
	dropped uint64
}

// NewLivePipeline validates the link, builds its private accumulator
// and pipeline, and starts the accumulate and classify stages.
func NewLivePipeline(l LiveLink) (*LivePipeline, error) {
	// The classify stage runs concurrently and owns the core pipeline's
	// table. A sealed column crosses with the accumulator's own IDs and
	// its stamp (CopyFrom), and the classify path translates them into
	// its table's (FillIDs): it compares the stamp, it never reads the
	// accumulator's table.
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
	maxSlabs := (buffer + liveSlab - 1) / liveSlab
	p := &LivePipeline{
		id: l.ID,
		// Sized to the number of slabs that can exist, so neither
		// channel's send ever blocks.
		ch:           make(chan *recordSlab, maxSlabs),
		freeSlabs:    make(chan *recordSlab, maxSlabs),
		done:         make(chan struct{}),
		sealed:       make(chan sealedInterval, liveTransferBuffers),
		free:         make(chan *core.FlowSnapshot, liveTransferBuffers),
		classifyDone: make(chan struct{}),
		acc:          acc,
	}
	pipe, err := newPipeline(l.ID, l.Config, nil, &p.step)
	if err != nil {
		return nil, err
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
// step the core pipeline and hand OnResult the interval whole. Every
// transfer buffer is recycled on every path — success, failure,
// post-failure drain — so the accumulate stage can never wedge waiting
// for a buffer.
func (p *LivePipeline) classify(pipe *core.Pipeline, onResult func(Sealed) error) {
	defer close(p.classifyDone)
	for m := range p.sealed {
		if p.classifyFailed.Load() {
			p.free <- m.snap
			continue
		}
		waitBefore := p.emitWait.Load()
		busyStart := time.Now()
		res, err := pipe.StepSnapshot(m.t, m.snap)
		if err == nil {
			err = onResult(Sealed{T: m.t, At: m.at, Result: res, Stats: m.stats, Step: p.step.last, SealLag: m.lag})
		}
		busy := time.Since(busyStart).Nanoseconds()
		p.free <- m.snap
		if err != nil {
			// The error is recorded before the accumulate stage is told to
			// stop, so whoever that stage releases — a producer waiting for
			// a slab — already reads the link as failed.
			p.setErr(fmt.Errorf("engine: link %q: %w", p.id, err))
			p.classifyFailed.Store(true)
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

// run is the accumulate stage: consume batches until the channel
// closes, then flush, then shut the classify stage down. On a
// mid-stream failure it keeps draining (and dropping) so producers
// blocked in SendBatch are released rather than wedged forever.
func (p *LivePipeline) run() {
	for b := range p.ch {
		n, err := p.acc.AddBatch(b.recs[:b.n])
		// Once classify has failed, nothing moves the published lag: a
		// failed link reads the lag it had when the failure was seen.
		if !p.classifyFailed.Load() {
			p.lag.Store(int64(p.acc.WatermarkLag()))
		}
		if err != nil {
			if !errors.Is(err, errClassifyFailed) {
				p.setErr(fmt.Errorf("engine: link %q: %w", p.id, err))
			}
			// Drain to unblock producers. The rest of this batch and
			// everything still queued — including batches a SendBatch
			// slipped in before observing the error — is discarded and
			// counted, so the producer can reconcile its accounting after
			// Close. (The triggering record itself reached the accumulator
			// and is already in its Stats.)
			p.dropped += uint64(b.n - n)
			p.freeSlabs <- b
			for b := range p.ch {
				p.dropped += uint64(b.n)
				p.freeSlabs <- b
			}
			p.finish()
			return
		}
		p.freeSlabs <- b
	}
	// Flush's seals publish the lag as they go, the last one after the
	// sealed edge reached the watermark; a seal refused because classify
	// failed publishes nothing.
	if err := p.acc.Flush(); err != nil {
		if !errors.Is(err, errClassifyFailed) {
			p.setErr(fmt.Errorf("engine: link %q: flush: %w", p.id, err))
		}
	}
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
// last batch or seal. Safe from any goroutine at any time: it is one
// atomic load, so HTTP scrape handlers read it while the worker runs.
func (p *LivePipeline) WatermarkLag() time.Duration {
	return time.Duration(p.lag.Load())
}

// Stalls returns how many times a Send/SendBatch found every batch of
// the record queue in use and had to block for a free one — the link's
// backpressure counter. Safe from any goroutine at any time.
func (p *LivePipeline) Stalls() uint64 { return p.stalls.Load() }

// LastOverlap returns the classify stage's most recent stage-overlap
// estimate: how much of the last interval's classification ran
// concurrently with accumulation (zero when the stages ran in
// lockstep). Safe from any goroutine at any time.
func (p *LivePipeline) LastOverlap() time.Duration {
	return time.Duration(p.lastOverlap.Load())
}

// Send pushes one record into the link: a one-record SendBatch, with
// its blocking, failure and concurrency contract.
func (p *LivePipeline) Send(rec agg.Record) error {
	_, err := p.SendBatch([]agg.Record{rec})
	return err
}

// SendBatch pushes the records of one decoded datagram in order: one
// copy into a free batch and one channel send (a longer slice is split
// into several), checking for link failure once per batch instead of
// once per record. When every batch of the queue is in use it blocks
// for the next one the accumulate stage returns (backpressure, not
// drops) and increments the stall counter once per blocking wait, so
// the daemon can see ingest-side pressure instead of readers silently
// wedging. It returns how many records were enqueued; on failure the
// remainder was dropped and err reports why, so the caller can account
// sent/dropped exactly. Safe from several goroutines at once (each
// call's records keep their order); must not be called after, or
// concurrently with, Close.
func (p *LivePipeline) SendBatch(recs []agg.Record) (sent int, err error) {
	for len(recs) > 0 {
		b := p.takeSlab()
		// Checked after the wait, not before it: a producer the failure
		// drain released must report the failure, not feed the drain.
		if p.failed.Load() {
			p.freeSlabs <- b
			return sent, p.Err()
		}
		n := copy(b.recs[:], recs)
		b.n = n
		p.ch <- b // b now belongs to the accumulate stage
		sent += n
		recs = recs[n:]
	}
	return sent, nil
}

// takeSlab returns a slab for the caller to fill: a recycled one if
// the free list has any, else a new one while the queue is below its
// capacity — so a link allocates only the slabs its backlog has ever
// needed — else the next one the accumulate stage returns.
func (p *LivePipeline) takeSlab() *recordSlab {
	select {
	case b := <-p.freeSlabs:
		return b
	default:
	}
	for n := p.slabs.Load(); int(n) < cap(p.freeSlabs); n = p.slabs.Load() {
		if p.slabs.CompareAndSwap(n, n+1) {
			return new(recordSlab)
		}
	}
	p.stalls.Add(1)
	return <-p.freeSlabs
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
// discarded before reaching the accumulator when the link failed (the
// rest of the batch holding the record that triggered the failure, and
// everything queued behind it), so a producer can reconcile its
// accounting: Stats().Records + Dropped() equals the records accepted.
// Zero for a healthy link. Valid only after Close has returned.
func (p *LivePipeline) Dropped() uint64 {
	select {
	case <-p.done:
		return p.dropped
	default:
		panic("engine: LivePipeline.Dropped before Close")
	}
}
