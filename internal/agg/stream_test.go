package agg

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
)

// synthRecords builds a deterministic record mix over the given number
// of intervals: per-interval point records (packets) plus span records
// crossing interval boundaries (flow records), seeded and reproducible.
func synthRecords(seed int64, intervals, flows int, interval time.Duration) []Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []Record
	for t := 0; t < intervals; t++ {
		at := start.Add(time.Duration(t) * interval)
		for f := 0; f < flows; f++ {
			p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", f/256, f%256))
			if rng.Float64() < 0.2 {
				continue // idle this interval
			}
			off := time.Duration(rng.Int63n(int64(interval)))
			rec := Record{Prefix: p, Time: at.Add(off), Bits: 1e4 * (1 + rng.Float64())}
			if t < intervals-1 && rng.Float64() < 0.3 {
				// A span record reaching into the next interval (never
				// beyond the last one, so batch and stream see the same
				// horizon).
				rec.Span = time.Duration(rng.Int63n(int64(interval)))
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// collectStream drains recs through an accumulator one Add at a time,
// returning one owned snapshot copy per emitted interval.
func collectStream(t *testing.T, cfg StreamConfig, recs []Record) (*StreamAccumulator, []*core.FlowSnapshot) {
	t.Helper()
	return collectStreamVia(t, cfg, func(acc *StreamAccumulator) error {
		for _, rec := range recs {
			if err := acc.Add(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// collectStreamVia is collectStream with the feeding left to the caller.
func collectStreamVia(t *testing.T, cfg StreamConfig, feed func(*StreamAccumulator) error) (*StreamAccumulator, []*core.FlowSnapshot) {
	t.Helper()
	acc, err := NewStreamAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []*core.FlowSnapshot
	acc.Emit = func(tt int, snap *core.FlowSnapshot) error {
		if tt != len(got) {
			t.Fatalf("emitted interval %d, want %d (in order, gap-free)", tt, len(got))
		}
		// The emitted snapshot is producer-owned; copy it out.
		own := core.NewFlowSnapshot(snap.Len())
		for i := 0; i < snap.Len(); i++ {
			own.Append(snap.Key(i), snap.Bandwidth(i))
		}
		got = append(got, own)
		return nil
	}
	if err := feed(acc); err != nil {
		t.Fatal(err)
	}
	if err := acc.Flush(); err != nil {
		t.Fatal(err)
	}
	return acc, got
}

// TestStreamBoundaryAlignedSpan: a span ending exactly on an interval
// boundary carries bits only up to that edge; the window must not
// advance into the boundary interval and strand the span's own bits
// behind the closed edge (regression: Window=1 dropped an aligned
// one-interval span entirely).
func TestStreamBoundaryAlignedSpan(t *testing.T) {
	iv := time.Minute
	acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	closed := 0
	var load0 float64
	acc.Emit = func(tt int, snap *core.FlowSnapshot) error { closed++; load0 = snap.TotalLoad(); return nil }
	// Exactly covers interval 0: [start, start+1m).
	if err := acc.Add(Record{Prefix: pfxA, Time: start, Span: iv, Bits: 600}); err != nil {
		t.Fatal(err)
	}
	if closed != 0 {
		t.Fatalf("aligned span closed %d intervals prematurely", closed)
	}
	if st := acc.Stats(); st.Late != 0 || st.LateBits != 0 {
		t.Fatalf("aligned span dropped as late: %+v", st)
	}
	if err := acc.Flush(); err != nil {
		t.Fatal(err)
	}
	if closed != 1 {
		t.Errorf("flushed %d intervals, want 1", closed)
	}
	if !floatEq(load0, 600/iv.Seconds()) {
		t.Errorf("interval 0 load = %v, want %v", load0, 600/iv.Seconds())
	}
}

// TestStreamFarFutureGuard: a record with a corrupted far-future
// timestamp is dropped and counted instead of closing an unbounded run
// of empty intervals and poisoning the stream for genuine traffic.
func TestStreamFarFutureGuard(t *testing.T) {
	iv := time.Minute
	acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	closed := 0
	acc.Emit = func(tt int, snap *core.FlowSnapshot) error { closed++; return nil }
	if err := acc.Add(Record{Prefix: pfxA, Time: start, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	// Garbage: ~5 years ahead of all traffic seen.
	if err := acc.Add(Record{Prefix: pfxB, Time: start.Add(500000 * iv), Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if st := acc.Stats(); st.FarFuture != 1 {
		t.Fatalf("FarFuture = %d, want 1 (%+v)", st.FarFuture, st)
	}
	if closed != 0 {
		t.Fatalf("far-future record closed %d intervals", closed)
	}
	// Genuine in-order traffic keeps flowing.
	if err := acc.Add(Record{Prefix: pfxB, Time: start.Add(3 * iv), Bits: 16}); err != nil {
		t.Fatal(err)
	}
	if st := acc.Stats(); st.Late != 0 {
		t.Fatalf("stream poisoned: genuine record late (%+v)", st)
	}
	if err := acc.Flush(); err != nil {
		t.Fatal(err)
	}
	if closed != 4 {
		t.Errorf("flushed %d intervals, want 4", closed)
	}

	// The guard must hold for the FIRST record too: under an explicit
	// Start, maxTouched is still -1 when a corrupt timestamp arrives
	// (regression: the guard was skipped and one record closed ~10^5
	// empty intervals). The gap then counts from the closed edge,
	// interval -1, so interval DefaultStreamMaxGap is already too far.
	acc2, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	closed2 := 0
	acc2.Emit = func(tt int, snap *core.FlowSnapshot) error { closed2++; return nil }
	if err := acc2.Add(Record{Prefix: pfxA, Time: start.Add(DefaultStreamMaxGap * iv), Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if st := acc2.Stats(); st.FarFuture != 1 || closed2 != 0 {
		t.Fatalf("first-record corruption not guarded: FarFuture=%d closed=%d", st.FarFuture, closed2)
	}
	// Genuine traffic still lands normally afterwards.
	if err := acc2.Add(Record{Prefix: pfxA, Time: start, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if st := acc2.Stats(); st.Late != 0 || st.InWindow != 1 {
		t.Fatalf("stream poisoned after guarded first record: %+v", st)
	}

	// The gap counts from the newest interval with bits, inclusive: a
	// record DefaultStreamMaxGap+1 intervals past it is dropped, one
	// DefaultStreamMaxGap past it lands. A 1 ns span is one instant,
	// not a saturated far-future one.
	acc3, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc3.Add(Record{Prefix: pfxB, Time: start, Span: time.Nanosecond, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, DefaultStreamMaxGap + 1, DefaultStreamMaxGap} {
		if err := acc3.Add(Record{Prefix: pfxA, Time: start.Add(time.Duration(k) * iv), Bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if st := acc3.Stats(); st.FarFuture != 1 || st.FarFutureBits != 8 || st.InWindow != 3 {
		t.Errorf("gap edge: %+v, want one record dropped (8 bits) and three landed", st)
	}
}

// TestStreamAlignsToFirstRecord: the zero-value Start aligns interval 0
// to the first record.
func TestStreamAlignsToFirstRecord(t *testing.T) {
	iv := 5 * time.Minute
	first := start.Add(17 * time.Second)
	acc, err := NewStreamAccumulator(StreamConfig{Interval: iv})
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Start().IsZero() {
		t.Error("start resolved before any record")
	}
	if err := acc.Add(Record{Prefix: pfxA, Time: first, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if !acc.Start().Equal(first) {
		t.Errorf("start = %v, want first record time %v", acc.Start(), first)
	}
	if got := acc.IntervalTime(1); !got.Equal(first.Add(iv)) {
		t.Errorf("IntervalTime(1) = %v", got)
	}
}

// TestStreamEmptyIntervals: traffic gaps must still emit the empty
// intervals in order — the pipeline's EWMA needs every slot.
func TestStreamEmptyIntervals(t *testing.T) {
	iv := time.Minute
	recs := []Record{
		{Prefix: pfxA, Time: start, Bits: 8},
		{Prefix: pfxA, Time: start.Add(6 * iv), Bits: 8}, // 5 empty slots between
	}
	_, got := collectStream(t, StreamConfig{Start: start, Interval: iv, Window: 3}, recs)
	if len(got) != 7 {
		t.Fatalf("emitted %d intervals, want 7", len(got))
	}
	for tt := 1; tt < 6; tt++ {
		if got[tt].Len() != 0 {
			t.Errorf("interval %d not empty", tt)
		}
	}
	if got[0].Len() != 1 || got[6].Len() != 1 {
		t.Error("edge intervals lost their flow")
	}
}

// TestStreamEvictionBoundsMemory: closing intervals releases their flow
// rows; the ring never holds more than Window columns.
func TestStreamEvictionBoundsMemory(t *testing.T) {
	iv := time.Minute
	acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 100; tt++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", tt/256, tt%256))
		if err := acc.Add(Record{Prefix: p, Time: start.Add(time.Duration(tt) * iv), Bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	open := 0
	for i := range acc.slots {
		open += len(acc.slots[i].dirty)
	}
	if open > 2 {
		t.Errorf("%d flow rows held open, want <= window", open)
	}
	if st := acc.Stats(); st.EvictedFlows != 98 {
		t.Errorf("EvictedFlows = %d, want 98", st.EvictedFlows)
	}
}

// churnRecords is a trace of heavy flow churn: per interval, anchors
// flows that recur every interval and churners flows never seen again.
func churnRecords(intervals, anchors, churners int, iv time.Duration) []Record {
	var recs []Record
	for tt := 0; tt < intervals; tt++ {
		at := start.Add(time.Duration(tt) * iv)
		for f := 0; f < anchors; f++ {
			p := netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", f))
			recs = append(recs, Record{Prefix: p, Time: at.Add(time.Second), Bits: 5e4 + float64(tt*f)})
		}
		for f := 0; f < churners; f++ {
			n := tt*churners + f
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(n >> 16), byte(n >> 8), byte(n)}), 32)
			recs = append(recs, Record{Prefix: p, Time: at.Add(2 * time.Second), Bits: 1e4 * float64(1+f)})
		}
	}
	return recs
}

// TestStreamRowReleaseMatchesSeries drives an accumulator through
// enough closes under churn that the rows it releases are freed and
// re-bound to other prefixes, and requires bit-equality with batch
// throughout: a recycled ID must never carry one flow's bits out under
// another's prefix.
func TestStreamRowReleaseMatchesSeries(t *testing.T) {
	const intervals = 40
	iv := time.Minute
	recs := churnRecords(intervals, 4, 12, iv)
	batch := NewSeries(start, iv, intervals)
	for _, rec := range recs {
		if !batch.AddRecord(rec) {
			t.Fatalf("batch dropped record %+v", rec)
		}
	}
	for _, window := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			acc, got := collectStream(t, StreamConfig{Start: start, Interval: iv, Window: window}, recs)
			if len(got) != intervals {
				t.Fatalf("emitted %d intervals, want %d", len(got), intervals)
			}
			for tt, snap := range got {
				snapEqual(t, fmt.Sprintf("interval %d, stream vs batch", tt), snap, batch.Snapshot(tt, nil))
			}
			if n := acc.Table().Cap(); n >= 4+12*intervals {
				t.Errorf("ID space grew to %d: no released ID was ever re-bound", n)
			}
		})
	}
}

// TestStreamRowReleaseBoundsTable: the accumulator releases a flow's
// row in its own table once the flow has been quiet for max(Window, 15)
// closes, so the table follows the flows of the last few intervals,
// not every prefix the link ever carried — while a flow that recurs
// every interval keeps its row and its ID. A caller's Table is
// ignored: the columns arrive stamped with the accumulator's own table,
// and nothing is interned into or released from the caller's.
func TestStreamRowReleaseBoundsTable(t *testing.T) {
	const (
		iv       = time.Minute
		window   = 4
		anchors  = 4
		churners = 12
	)
	anchor := netip.MustParsePrefix("10.0.0.0/24")
	// run streams the trace and checks, at every close, that the anchor
	// still holds the ID it had at the first; it returns the accumulator
	// and the most rows its table held at any close.
	run := func(t *testing.T, table *core.FlowTable, recs []Record) (acc *StreamAccumulator, maxLen int) {
		acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: window, Table: table})
		if err != nil {
			t.Fatal(err)
		}
		var anchorID uint32
		acc.Emit = func(tt int, snap *core.FlowSnapshot) error {
			id, ok := acc.Table().Lookup(anchor)
			if tt == 0 {
				anchorID = id
			}
			if !ok || id != anchorID {
				t.Fatalf("close %d: anchor has ID %d (bound: %v), want %d", tt, id, ok, anchorID)
			}
			if snap.IDTable() != acc.Table() {
				t.Fatalf("close %d: column stamped %p, want the accumulator's table %p", tt, snap.IDTable(), acc.Table())
			}
			maxLen = max(maxLen, acc.Table().Len())
			return nil
		}
		for _, rec := range recs {
			if err := acc.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := acc.Flush(); err != nil {
			t.Fatal(err)
		}
		return acc, maxLen
	}

	t.Run("recurring flows keep their rows", func(t *testing.T) {
		if _, maxLen := run(t, nil, churnRecords(40, anchors, 0, iv)); maxLen != anchors {
			t.Errorf("table held up to %d rows, want the %d recurring flows throughout", maxLen, anchors)
		}
	})

	const intervals = 20000 / churners
	churn := churnRecords(intervals, anchors, churners, iv)
	t.Run("private table follows the live flows", func(t *testing.T) {
		// At a close the table holds the anchors, the churners of the
		// grace intervals up to the one sealed (quiet, not yet released),
		// and those of the open intervals.
		grace := max(window, 15) // StreamConfig.Window's documented floor
		acc, maxLen := run(t, nil, churn)
		if bound := anchors + (grace+window)*churners; maxLen > bound {
			t.Errorf("table held up to %d rows over %d one-interval flows, want <= %d", maxLen, intervals*churners, bound)
		}
		if want := anchors + grace*churners; acc.Table().Len() != want {
			t.Errorf("table holds %d rows after the flush, want %d: the anchors and the last %d intervals' churners", acc.Table().Len(), want, grace)
		}
	})
	t.Run("caller's table is left whole", func(t *testing.T) {
		tb := core.NewFlowTable()
		tb.Intern(pfxB)
		acc, _ := run(t, tb, churn)
		if id, ok := tb.Lookup(pfxB); tb.Len() != 1 || tb.Cap() != 1 || !ok || id != 0 {
			t.Errorf("caller's table holds %d rows in %d IDs, want only its own pfxB at 0", tb.Len(), tb.Cap())
		}
		if want := anchors + max(window, 15)*churners; acc.Table().Len() != want {
			t.Errorf("accumulator's table holds %d rows after the flush, want %d as without a caller's table", acc.Table().Len(), want)
		}
	})
}

// TestStreamQuietFlowGrace: a flow last touched in interval 0 goes
// quiet at close 0, and its row is released at close grace =
// max(Window, 15): every interval open after close 0 has
// closed by then. A straggler or a returning flow reaching it before
// then reuses the row, its ID unchanged, and keeps it past close grace;
// after it, the freed ID goes to the next new flow. Every column is
// stamped with the accumulator's own table.
func TestStreamQuietFlowGrace(t *testing.T) {
	const iv = time.Minute
	for _, window := range []int{3, 17} {
		grace := max(window, 15) // StreamConfig.Window's documented floor
		for k := 1; k <= grace+window+1; k++ {
			t.Run(fmt.Sprintf("window=%d/back in interval %d", window, k), func(t *testing.T) {
				at := start.Add(time.Duration(k)*iv + time.Second)
				var idA, idB, idA2 uint32
				acc, got := collectStreamVia(t, StreamConfig{Start: start, Interval: iv, Window: window}, func(acc *StreamAccumulator) error {
					collect := acc.Emit
					acc.Emit = func(g int, snap *core.FlowSnapshot) error {
						if snap.IDTable() != acc.Table() {
							t.Fatalf("close %d: column stamped %p, want the accumulator's table %p", g, snap.IDTable(), acc.Table())
						}
						return collect(g, snap)
					}
					if err := acc.Add(Record{Prefix: pfxA, Time: start, Bits: 60}); err != nil {
						return err
					}
					idA, _ = acc.Table().Lookup(pfxA)
					// pfxB closes intervals up to k-window; pfxA returns in k.
					if err := acc.Add(Record{Prefix: pfxB, Time: at, Bits: 120}); err != nil {
						return err
					}
					idB, _ = acc.Table().Lookup(pfxB)
					if err := acc.Add(Record{Prefix: pfxA, Time: at, Bits: 180}); err != nil {
						return err
					}
					idA2, _ = acc.Table().Lookup(pfxA)
					return nil
				})
				released := k-window >= grace // close grace has run
				if kept := idA2 == idA; kept == released {
					t.Errorf("pfxA had ID %d, returns with %d after closes 0…%d; want it kept: %v", idA, idA2, k-window, !released)
				}
				if released && idB != idA {
					t.Errorf("pfxB got ID %d, want pfxA's freed %d", idB, idA)
				}
				if len(got) != k+1 {
					t.Fatalf("emitted %d intervals, want %d", len(got), k+1)
				}
				last := got[k]
				if last.Len() != 2 || last.Key(0) != pfxA || last.Bandwidth(0) != 3 || last.Key(1) != pfxB || last.Bandwidth(1) != 2 {
					t.Errorf("interval %d = %v %v, want pfxA at 3, pfxB at 2", k, last.Keys(), last.Bandwidths())
				}
				// Flushed through k: both flows quiet, neither released yet.
				if id, ok := acc.Table().Lookup(pfxA); !ok || id != idA2 {
					t.Errorf("after the flush pfxA has ID %d (bound %v), want %d", id, ok, idA2)
				}
			})
		}
	}
}

// TestStreamEmitError: an Emit error aborts the Add/Flush that
// triggered it.
func TestStreamEmitError(t *testing.T) {
	boom := errors.New("boom")
	acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: time.Minute, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc.Emit = func(tt int, snap *core.FlowSnapshot) error { return boom }
	if err := acc.Add(Record{Prefix: pfxA, Time: start, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(Record{Prefix: pfxA, Time: start.Add(time.Minute), Bits: 8}); !errors.Is(err, boom) {
		t.Errorf("Add after forced close = %v, want boom", err)
	}

	// AddBatch stops where the Add loop would: the record whose close
	// failed was presented (it is in n and in Stats), the one after it
	// never was.
	bacc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: time.Minute, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	bacc.Emit = acc.Emit
	n, err := bacc.AddBatch([]Record{
		{Prefix: pfxA, Time: start, Bits: 8},
		{Prefix: pfxA, Time: start.Add(time.Minute), Bits: 8},
		{Prefix: pfxA, Time: start.Add(2 * time.Minute), Bits: 8},
	})
	if n != 2 || !errors.Is(err, boom) {
		t.Errorf("AddBatch = (%d, %v), want (2, boom)", n, err)
	}
	if bacc.Stats() != acc.Stats() {
		t.Errorf("AddBatch Stats() = %+v, Add loop %+v", bacc.Stats(), acc.Stats())
	}
}

// TestAddBatchRecycleMidSlab: the flow behind a key can change in the
// middle of one AddBatch call. The slab's second record closes so many
// intervals that the flow behind key 7 is released and its ID is bound
// to another prefix, after which key 7 arrives with a new prefix and
// with the old one again, twice. Anything AddBatch resolved for the
// slab ahead of that record — a key's slot, the row it names, an ID —
// would be stale by then, so snapshots, counters and the table must
// come out as the Add loop leaves them. Once without a caller's table
// and once naming one, which changes nothing: the columns carry the
// accumulator's own IDs and the caller's table stays empty.
func TestAddBatchRecycleMidSlab(t *testing.T) {
	const jump = 40 // intervals: past the accumulator's release, 15 closes at Window 2
	later := start.Add(jump * time.Minute)
	first := Record{Prefix: pfxA, Key: 7, Time: start, Bits: 600}
	slab := []Record{
		{Prefix: pfxA, Key: 7, Time: start, Bits: 60},
		{Prefix: pfxC, Key: 9, Time: later, Bits: 120}, // closes 0…jump-2, takes pfxA's ID
		{Prefix: pfxB, Key: 7, Time: later, Bits: 180},
		{Prefix: pfxA, Key: 7, Time: later, Bits: 240},
		{Prefix: pfxB, Key: 7, Time: later, Bits: 300},
		{Prefix: pfxA, Key: 7, Time: later, Bits: 360},
	}
	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			var callerTables []*core.FlowTable
			run := func(batch bool) (*StreamAccumulator, []*core.FlowSnapshot, uint32) {
				cfg := StreamConfig{Start: start, Interval: time.Minute, Window: 2}
				if shared {
					cfg.Table = core.NewFlowTable()
					callerTables = append(callerTables, cfg.Table)
				}
				var firstID uint32
				acc, snaps := collectStreamVia(t, cfg, func(a *StreamAccumulator) error {
					collect := a.Emit
					a.Emit = func(g int, snap *core.FlowSnapshot) error {
						if snap.IDTable() != a.Table() {
							t.Errorf("interval %d: column stamped %p, want the accumulator's table %p", g, snap.IDTable(), a.Table())
						}
						return collect(g, snap)
					}
					if err := a.Add(first); err != nil {
						return err
					}
					firstID, _ = a.Table().Lookup(pfxA)
					if batch {
						n, err := a.AddBatch(slab)
						if n != len(slab) {
							t.Errorf("AddBatch presented %d of %d records", n, len(slab))
						}
						return err
					}
					for _, rec := range slab {
						if err := a.Add(rec); err != nil {
							return err
						}
					}
					return nil
				})
				return acc, snaps, firstID
			}
			acc, got, firstID := run(false)
			bacc, bgot, _ := run(true)
			if id, ok := acc.Table().Lookup(pfxC); !ok || id != firstID {
				t.Fatalf("pfxC holds ID %d (bound %v); the case needs it to recycle pfxA's first ID %d", id, ok, firstID)
			}
			if bacc.Stats() != acc.Stats() {
				t.Errorf("AddBatch Stats() = %+v, Add loop %+v", bacc.Stats(), acc.Stats())
			}
			if len(bgot) != len(got) || len(got) != jump+1 {
				t.Fatalf("AddBatch emitted %d intervals, Add loop %d, want %d", len(bgot), len(got), jump+1)
			}
			for g := range got {
				snapEqual(t, fmt.Sprintf("interval %d, AddBatch vs Add loop", g), bgot[g], got[g])
			}
			if last := got[jump]; last.Len() != 3 || last.Bandwidth(0) != (240+360)/60.0 {
				t.Errorf("interval %d = %v %v, want pfxA, pfxB, pfxC with pfxA at %v", jump, last.Keys(), last.Bandwidths(), (240+360)/60.0)
			}
			for _, p := range []netip.Prefix{pfxA, pfxB, pfxC} {
				id, ok := acc.Table().Lookup(p)
				if bid, bok := bacc.Table().Lookup(p); bid != id || bok != ok {
					t.Errorf("%v: AddBatch leaves ID %d (bound %v), Add loop %d (%v)", p, bid, bok, id, ok)
				}
			}
			if bacc.Table().Len() != acc.Table().Len() || bacc.Table().Cap() != acc.Table().Cap() {
				t.Errorf("AddBatch leaves a table of %d rows in %d IDs, Add loop %d in %d",
					bacc.Table().Len(), bacc.Table().Cap(), acc.Table().Len(), acc.Table().Cap())
			}
			if shared && (callerTables[0].Cap() != 0 || callerTables[1].Cap() != 0) {
				t.Errorf("the caller's tables hold %d and %d IDs, want none", callerTables[0].Cap(), callerTables[1].Cap())
			}
		})
	}
}

func TestStreamConfigValidation(t *testing.T) {
	if _, err := NewStreamAccumulator(StreamConfig{Interval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewStreamAccumulator(StreamConfig{Interval: time.Nanosecond}); err != nil {
		t.Errorf("1 ns interval refused: %v", err)
	}
	if _, err := NewStreamAccumulator(StreamConfig{Interval: time.Minute, Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	acc, err := NewStreamAccumulator(StreamConfig{Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Window() != DefaultStreamWindow {
		t.Errorf("default window = %d, want %d", acc.Window(), DefaultStreamWindow)
	}
}

// TestCollectMatchesAggregatorArithmetic: Series.AddRecord's point path
// is exactly AddBits on the interval the record falls in.
func TestCollectMatchesAggregatorArithmetic(t *testing.T) {
	iv := 5 * time.Minute
	a := NewSeries(start, iv, 2)
	b := NewSeries(start, iv, 2)
	a.AddBits(pfxA, 0, 12345)
	if !b.AddRecord(Record{Prefix: pfxA, Time: start.Add(time.Second), Bits: 12345}) {
		t.Fatal("in-window record rejected")
	}
	if a.Bandwidth(pfxA, 0) != b.Bandwidth(pfxA, 0) {
		t.Errorf("AddBits %v != AddRecord %v", a.Bandwidth(pfxA, 0), b.Bandwidth(pfxA, 0))
	}
	for _, at := range []time.Duration{2 * iv, -time.Nanosecond} {
		if b.AddRecord(Record{Prefix: pfxA, Time: start.Add(at), Bits: 1}) {
			t.Errorf("record at %v, outside the window, accepted", at)
		}
	}
}

// TestStreamAddSteadyStateAllocs is the Type-1 gate on the record path:
// once the flow population and the window have been seen, Add of keyed
// span records — what netflow.Attribute yields — allocates nothing,
// interval closes included.
func TestStreamAddSteadyStateAllocs(t *testing.T) {
	const iv = time.Minute
	const flows = 512
	acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc.Emit = func(int, *core.FlowSnapshot) error { return nil }
	recs := make([]Record, flows)
	for f := range recs {
		recs[f] = Record{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(f >> 8), byte(f), 0}), 24),
			Key:    uint32(f*117 + 1),
			Span:   time.Duration(f+1) * iv / flows, // the longer ones cross into the next interval
			Bits:   1e4,
		}
	}
	interval := 0
	feed := func() {
		at := start.Add(time.Duration(interval)*iv + iv/3)
		for f := range recs {
			recs[f].Time = at
			if err := acc.Add(recs[f]); err != nil {
				t.Fatal(err)
			}
		}
		interval++
	}
	for i := 0; i < 8; i++ { // warm: slot columns, dirty lists, rank column, key table
		feed()
	}
	if avg := testing.AllocsPerRun(32, feed); avg != 0 {
		t.Errorf("warm Add averages %v allocs per %d records, want 0", avg, flows)
	}
}
