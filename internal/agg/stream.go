package agg

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// DefaultStreamWindow is the default number of simultaneously open
// intervals — the latent-heat lookback of the paper (12 five-minute
// slots = 1 hour), so the accumulator's memory horizon matches the
// classifier's.
const DefaultStreamWindow = 12

// DefaultStreamMaxGap bounds how many intervals beyond the newest
// bit-carrying interval a single record may advance the window:
// generous enough for a link idle for days (4096 five-minute slots ≈
// two weeks), small enough that a corrupted far-future timestamp cannot
// force millions of empty-interval closes and poison the stream.
// Records jumping further are dropped and counted in Stats.FarFuture
// (the batch path's equivalent is one OutOfRange count).
const DefaultStreamMaxGap = 4096

// StreamConfig sizes a StreamAccumulator.
type StreamConfig struct {
	// Start is the left edge of interval 0. The zero value aligns
	// interval 0 to the first record's Time.
	Start time.Time
	// Interval is the measurement interval Δ. Required.
	Interval time.Duration
	// Window is W, the number of simultaneously open intervals (the
	// reordering/span tolerance of the source). Memory is bounded by W
	// columns of active flows regardless of trace length: the
	// accumulator releases a flow's row in its own table once the flow
	// has been quiet for W closes, or 15 if W is smaller. Defaults to
	// DefaultStreamWindow.
	Window int
	// Table is ignored. The accumulator interns into a table of its own
	// (StreamAccumulator.Table) and emits columns stamped with it; a
	// core.Pipeline translates such a column into its own table as it
	// steps it (FillIDs), on whichever goroutine drives it. The field is
	// kept only so the benchmark harness's staged path, which still sets
	// it, compiles; it goes with that caller.
	Table *core.FlowTable
}

// StreamStats counts streaming attribution outcomes.
type StreamStats struct {
	// Records is the number of records presented to Add.
	Records uint64
	// InWindow counts records that landed at least partly in an open
	// interval.
	InWindow uint64
	// Late counts records whose bits fell entirely into already-closed
	// intervals (or before an explicit Start) and were dropped.
	Late uint64
	// LateBits is the total volume dropped into closed intervals,
	// including the clipped-off leading portion of partially late span
	// records.
	LateBits float64
	// FarFuture counts records dropped because they would advance the
	// window more than DefaultStreamMaxGap intervals past the newest
	// bit-carrying interval (corrupted timestamps, not traffic).
	FarFuture uint64
	// FarFutureBits is the total volume of the FarFuture records.
	FarFutureBits float64
	// Closed is the number of intervals closed (and emitted) so far.
	Closed int
	// EvictedFlows counts flow cells evicted with their closing
	// interval's column — one per flow the interval carried, whether or
	// not its table row is released — the eviction that keeps memory
	// independent of trace length.
	EvictedFlows uint64
}

// streamSlot is one open interval of the ring: an ID-indexed bandwidth
// column plus the list of IDs dirtied this interval, maintained with
// arithmetic identical to Series.AddBits so the emitted snapshots match
// Series.Snapshot bit for bit. A generation tag per cell (seen) marks
// which cells belong to the current interval, so recycling a slot for
// interval g+Window is O(1): bump the generation and truncate the dirty
// list — stale cells are simply never read. Closing an interval orders
// only the dirty IDs instead of re-sorting every key of a map, and
// steady-state accumulation does not allocate.
type streamSlot struct {
	col   []float64 // id -> accumulated bandwidth, valid iff seen[id] == gen
	seen  []uint32  // id -> generation that last touched the cell
	dirty []uint32  // IDs touched in the current interval
	gen   uint32    // current generation, starts at 1
}

// touch accumulates bandwidth into one cell, first claiming it for the
// current generation.
func (sl *streamSlot) touch(id uint32, bw float64) {
	if sl.seen[id] == sl.gen {
		sl.col[id] += bw
	} else {
		sl.seen[id] = sl.gen
		sl.dirty = append(sl.dirty, id)
		sl.col[id] = bw
	}
}

// grow widens the slot's columns to cover the table's ID space.
func (sl *streamSlot) grow(n int) {
	if n <= len(sl.col) {
		return
	}
	sl.col = append(sl.col, make([]float64, n-len(sl.col))...)
	sl.seen = append(sl.seen, make([]uint32, n-len(sl.seen))...)
}

// StreamAccumulator is the bounded-memory streaming twin of Series: it
// accumulates records into a ring of Window open intervals, closes
// intervals as record timestamps advance, and emits each closed
// interval as a sorted core.FlowSnapshot — exactly the column
// Series.Snapshot would produce from the same records. Memory is
// bounded by Window columns of active flows, not by trace length: flow
// rows are evicted wholesale when their interval closes.
//
// The emitted snapshot is owned by the accumulator and reused across
// intervals; Emit consumers must not retain it (the same ownership
// contract as Series.Snapshot). An accumulator is single-goroutine:
// drive it from one producer, typically engine.LivePipeline's
// accumulate stage.
type StreamAccumulator struct {
	// Emit receives each closed interval in order (gap-free, including
	// empty intervals) with its global interval index. A nil Emit
	// discards closed intervals but still counts them. An Emit error
	// aborts the Add/Flush that triggered it.
	Emit func(t int, snap *core.FlowSnapshot) error

	cfg   StreamConfig
	start time.Time // resolved left edge of interval 0
	began bool      // start is resolved (first record seen or explicit Start)

	// The interior clock is integer nanoseconds since start: a record's
	// Time is converted once (Record.extent) and every gate, clip and
	// apportioning below is integer arithmetic on the same durations the
	// time.Time form would produce. time.Time is rebuilt only at the API
	// edge (IntervalTime).
	interval int64   // Δ in nanoseconds
	secs     float64 // Δ in seconds, the bits→bandwidth divisor

	base       int   // oldest open interval (global index)
	maxTouched int   // highest interval that received bits; -1 before any
	newest     int64 // newest bit-carrying instant accepted past the far-future gate; -1 before any
	table      *core.FlowTable
	slots      []streamSlot
	// lastSeen is, per dense ID, the newest interval that touched the
	// flow; quiet is the ring of per-close lists of flows gone quiet,
	// allocated at the first close (see releaseQuiet).
	lastSeen []int
	quiet    [][]uint32

	snap  *core.FlowSnapshot // reused emission buffer
	stats StreamStats
}

// NewStreamAccumulator validates cfg and returns an empty accumulator.
func NewStreamAccumulator(cfg StreamConfig) (*StreamAccumulator, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("agg: NewStreamAccumulator: non-positive interval %v", cfg.Interval)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultStreamWindow
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("agg: NewStreamAccumulator: window %d < 1", cfg.Window)
	}
	a := &StreamAccumulator{
		cfg:        cfg,
		start:      cfg.Start,
		began:      !cfg.Start.IsZero(),
		interval:   int64(cfg.Interval),
		secs:       cfg.Interval.Seconds(),
		maxTouched: -1,
		newest:     -1,
		table:      core.NewFlowTable(),
		slots:      make([]streamSlot, cfg.Window),
		snap:       core.NewFlowSnapshot(0),
	}
	for i := range a.slots {
		a.slots[i].gen = 1
	}
	return a, nil
}

// Table returns the accumulator's own flow identity table, the one it
// interns into and releases from.
func (a *StreamAccumulator) Table() *core.FlowTable { return a.table }

// Start returns the resolved left edge of interval 0 — the configured
// Start, or the first record's Time when aligning automatically (zero
// until the first record arrives).
func (a *StreamAccumulator) Start() time.Time { return a.start }

// Interval returns the measurement interval Δ.
func (a *StreamAccumulator) Interval() time.Duration { return a.cfg.Interval }

// Window returns W, the number of simultaneously open intervals.
func (a *StreamAccumulator) Window() int { return a.cfg.Window }

// Stats returns the attribution counters so far.
func (a *StreamAccumulator) Stats() StreamStats { return a.stats }

// WatermarkLag returns how far the stream watermark has run ahead of
// the sealed edge. The watermark is the newest bit-carrying instant of
// any record accepted past the far-future gate: behind-the-window
// records still advance it — their timestamps are genuine — but records
// before the stream origin and records dropped as corrupt do not. The
// lag is the watermark minus the left edge of the oldest open
// interval (= the right edge of the newest sealed interval). It is the
// freshness measure a resident daemon exports per link — a link whose
// records keep arriving but whose lag keeps growing is wedged behind a
// reordering horizon, while a silent link holds its last reading.
// Clamped to zero (Flush seals through the watermark, leaving the
// sealed edge at or past it); zero before any record.
func (a *StreamAccumulator) WatermarkLag() time.Duration {
	return time.Duration(max(a.newest-a.sealedEdge(), 0))
}

// sealedEdge is the left edge of the oldest open interval on the
// interior clock: the instant before which bits are late.
func (a *StreamAccumulator) sealedEdge() int64 { return int64(a.base) * a.interval }

// IntervalTime returns the left edge of interval t (meaningful once
// Start is resolved).
func (a *StreamAccumulator) IntervalTime(t int) time.Time {
	return a.start.Add(time.Duration(t) * a.cfg.Interval)
}

// slot returns the ring slot of open interval g.
func (a *StreamAccumulator) slot(g int) *streamSlot { return &a.slots[g%a.cfg.Window] }

// addBits mirrors Series.AddBits: the same bits→bandwidth conversion
// and the same per-cell accumulation order, which is what keeps the
// streaming and batch paths bit-identical. The flow is already interned
// — accumulation itself is pure column arithmetic, no hashing.
func (a *StreamAccumulator) addBits(id uint32, g int, bits float64) {
	sl := a.slot(g)
	sl.grow(a.table.Cap())
	sl.touch(id, bits/a.secs)
}

// Add accumulates one record, first closing intervals as far as the
// record's bits require so that the last interval the record touches is
// open. Bits reaching back before the closed edge are dropped and
// counted in Stats.Late/LateBits; everything else lands with arithmetic
// identical to Series.AddRecord.
func (a *StreamAccumulator) Add(rec Record) error { return a.add(&rec) }

// AddBatch is Add over recs in order, without copying a record: it
// stops at the first error and returns how many records it presented,
// the failing one included (that record is in Stats like any other; the
// ones after it were never looked at).
func (a *StreamAccumulator) AddBatch(recs []Record) (n int, err error) {
	for i := range recs {
		if err = a.add(&recs[i]); err != nil {
			return i + 1, err
		}
	}
	return len(recs), nil
}

// add is the one body of record accumulation; it reads rec and keeps no
// reference to it.
func (a *StreamAccumulator) add(rec *Record) error {
	a.stats.Records++
	if !a.began {
		a.began = true
		a.start = rec.Time
	}
	off, span := rec.extent(a.start)
	// The last instant that actually carries bits: span records spread
	// over [Time, End), so a span ending exactly on an interval boundary
	// stops in the interval before it — advancing to End's own interval
	// there would close one interval too many and strand in-order bits
	// behind the closed edge.
	last := off
	if span > 0 {
		if last = off + span - 1; last < off { // a saturated far-future off
			last = math.MaxInt64
		}
	}
	if last < 0 {
		// The whole record precedes the stream origin.
		a.stats.Late++
		a.stats.LateBits += rec.Bits
		return nil
	}
	end := int(last / a.interval)
	// A timestamp this far past all traffic seen is corruption, not an
	// idle link; advancing would close an unbounded run of empty
	// intervals and poison the stream for every genuine record after
	// it. Before any bits land (maxTouched -1) the bound is taken from
	// the closed edge instead, so a corrupt FIRST record under an
	// explicit Start is guarded too.
	if end > max(a.maxTouched, a.base-1)+DefaultStreamMaxGap {
		a.stats.FarFuture++
		a.stats.FarFutureBits += rec.Bits
		return nil
	}
	// The watermark advances only past the corruption gate: a far-future
	// timestamp must not poison the lag reading any more than it may
	// close intervals.
	a.newest = max(a.newest, last)
	if end >= a.base+a.cfg.Window {
		if err := a.advanceTo(end - a.cfg.Window + 1); err != nil {
			return err
		}
	}
	if end < a.base {
		// Every bit-carrying interval is behind the closed edge; drop
		// without interning a flow identity the pipeline will never see.
		a.stats.Late++
		a.stats.LateBits += rec.Bits
		return nil
	}
	if rec.Bits <= 0 {
		// A record that cannot contribute positive bandwidth must not
		// intern a flow identity: such a flow would never surface in a
		// snapshot, so the classifier would never evict it and its table
		// entry (and ring-column slot) would leak for the life of a
		// resident daemon — a remotely triggerable grow-forever on
		// spoofable zero-octet NetFlow records. The record still counts
		// and still advances the flush/far-future horizon, exactly as a
		// zero-bit cell write would have.
		a.maxTouched = max(a.maxTouched, end)
		a.stats.InWindow++
		return nil
	}
	// end is open, so the record reaches the window; bits it spent before
	// the closed edge are the only ones that can miss.
	// One intern per record, shared by every interval the span touches; a
	// keyed record's is a verified table probe, not a hash.
	id := a.table.InternKeyed(rec.Prefix, rec.Key)
	if int(id) >= len(a.lastSeen) {
		a.lastSeen = append(a.lastSeen, make([]int, a.table.Cap()-len(a.lastSeen))...)
	}
	// end is the last interval the record's bits reach.
	a.lastSeen[id] = max(a.lastSeen[id], end)
	spreadRecord(off, span, rec.Bits, a.interval, a.base, a.base+a.cfg.Window, func(t int, bits float64) {
		a.addBits(id, t, bits)
	})
	a.maxTouched = max(a.maxTouched, end)
	a.stats.InWindow++
	if clip := a.sealedEdge(); off < clip {
		// Leading portion clipped off by the closed edge.
		a.stats.LateBits += rec.Bits * float64(clip-off) / float64(span)
	}
	return nil
}

// advanceTo closes intervals [base, newBase) in order.
func (a *StreamAccumulator) advanceTo(newBase int) error {
	for a.base < newBase {
		if err := a.closeOldest(); err != nil {
			return err
		}
	}
	return nil
}

// closeOldest emits the oldest open interval as a sorted snapshot and
// recycles its slot. Emission order and values match Series.Snapshot:
// positive-bandwidth flows in core.ComparePrefix order, appended into a
// reused snapshot. Only the interval's dirty IDs are put in order
// (core.FlowTable.SortIDs: normally a bitmap sweep over the table's
// rank column, no comparisons) — not every flow the link has ever seen
// — and they must be in prefix order BEFORE appending (nothing sorts a
// snapshot afterwards; Pipeline.Step refuses an unsorted one): Append
// folds each bandwidth into the snapshot's running total, and that
// float sum is only bit-identical to the batch path's if the addition
// order is the same sorted order Series.Snapshot uses.
func (a *StreamAccumulator) closeOldest() error {
	g := a.base
	sl := a.slot(g)
	a.table.SortIDs(sl.dirty)
	pf := a.table.Prefixes()
	a.snap.Reset()
	a.snap.SetIDTable(a.table)
	for _, id := range sl.dirty {
		a.snap.AppendID(pf[id], id, sl.col[id])
	}
	a.stats.Closed++
	a.stats.EvictedFlows += uint64(len(sl.dirty))
	a.releaseQuiet(g, sl.dirty)
	// Recycle the slot for interval g+Window: bumping the generation
	// invalidates every cell at once, so steady-state accumulation
	// neither clears columns nor allocates.
	sl.dirty = sl.dirty[:0]
	sl.gen++
	if sl.gen == 0 { // generation wrap: stale tags could collide
		clear(sl.seen)
		sl.gen = 1
	}
	a.base++
	if a.Emit != nil {
		return a.Emit(g, a.snap)
	}
	return nil
}

// minQuietCloses is the fewest closes a quiet flow's row outlives the
// flow. Rows of flows that pause for a few intervals are then not
// re-bound, each re-binding costing a rank rebuild at the next close: at
// Window's 12 closes alone stream_replay ran at 0.57× the records/s.
const minQuietCloses = 15

// releaseQuiet files the flows that go quiet at close g — whose newest
// bits are in the closing interval — and releases the rows of those
// that went quiet at close g-grace and have not been touched since: a
// flow back within the grace period keeps its row and ID. grace >=
// Window, so no open slot can hold bits of a released row.
func (a *StreamAccumulator) releaseQuiet(g int, dirty []uint32) {
	if a.quiet == nil {
		a.quiet = make([][]uint32, max(a.cfg.Window, minQuietCloses)+1)
	}
	grace := len(a.quiet) - 1
	due := &a.quiet[(g+1)%len(a.quiet)] // filed at close g-grace
	for _, id := range *due {
		if a.lastSeen[id] == g-grace {
			a.table.Release(id)
		}
	}
	*due = (*due)[:0]
	now := &a.quiet[g%len(a.quiet)]
	for _, id := range dirty {
		if a.lastSeen[id] == g {
			*now = append(*now, id)
		}
	}
}

// Flush closes every remaining interval through the last one that
// received bits. Call at end of stream; the accumulator is then
// positioned to keep going if more (later) records arrive.
func (a *StreamAccumulator) Flush() error {
	return a.advanceTo(a.maxTouched + 1)
}
