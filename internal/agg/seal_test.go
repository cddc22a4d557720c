package agg

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// randomSeries builds a series through a random mix of the mutation API:
// AddBits accumulation, SetBandwidth overwrites, overwrite-to-zero (a
// flow that was active in an interval and then zeroed must vanish from
// that interval's snapshot), and rows that stay entirely idle. Rows are
// created in no prefix order, so sorted emission goes through the row
// permutation.
func randomSeries(seed int64, flows, intervals int) *Series {
	rng := rand.New(rand.NewSource(seed))
	s := NewSeries(start, time.Minute, intervals)
	for _, f := range rng.Perm(flows) {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", f/250, f%250))
		for t := 0; t < intervals; t++ {
			switch rng.Intn(5) {
			case 0, 1: // idle cell
			case 2:
				s.AddBits(p, t, rng.Float64()*1e9)
				if rng.Intn(3) == 0 {
					s.AddBits(p, t, rng.Float64()*1e8) // accumulate twice
				}
			case 3:
				s.SetBandwidth(p, t, rng.Float64()*1e7)
			case 4:
				s.SetBandwidth(p, t, rng.Float64()*1e7)
				if rng.Intn(2) == 0 {
					s.SetBandwidth(p, t, 0) // overwrite to zero
				}
			}
		}
	}
	return s
}

// denseSnapshot is the oracle every read of a Series is held to:
// interval t by a scan over every row, in an order sorted here, with
// one checked append per positive cell. It does not touch the interval
// index, so it neither reads it nor freezes the series. rowIDs nil
// leaves the ID column out.
func denseSnapshot(s *Series, t int, tbl *core.FlowTable, rowIDs []uint32) *core.FlowSnapshot {
	order := make([]int, len(s.keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return core.ComparePrefix(s.keys[a], s.keys[b]) })
	dst := core.NewFlowSnapshot(0)
	dst.SetIDTable(tbl)
	for _, i := range order {
		if rowIDs != nil {
			dst.AppendID(s.keys[i], rowIDs[i], s.rows[i][t])
		} else {
			dst.Append(s.keys[i], s.rows[i][t])
		}
	}
	return dst
}

// snapDiff compares two snapshots column-for-column, bitwise, returning
// a description of the first difference ("" when identical). It stays
// goroutine-safe so concurrent tests can report via t.Errorf.
func snapDiff(a, b *core.FlowSnapshot) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("%d flows vs %d", a.Len(), b.Len())
	}
	if a.HasIDs() != b.HasIDs() {
		return fmt.Sprintf("HasIDs %v vs %v", a.HasIDs(), b.HasIDs())
	}
	// The total is a fold over the column in order: bit equality means
	// the bulk fill added the same values in the same order.
	if math.Float64bits(a.TotalLoad()) != math.Float64bits(b.TotalLoad()) {
		return fmt.Sprintf("total load %v vs %v", a.TotalLoad(), b.TotalLoad())
	}
	if a.IsSorted() != b.IsSorted() {
		return fmt.Sprintf("IsSorted %v vs %v", a.IsSorted(), b.IsSorted())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Key(i) != b.Key(i) {
			return fmt.Sprintf("flow %d key %v vs %v", i, a.Key(i), b.Key(i))
		}
		if a.Bandwidth(i) != b.Bandwidth(i) {
			return fmt.Sprintf("flow %d (%v) bw %v vs %v", i, a.Key(i), a.Bandwidth(i), b.Bandwidth(i))
		}
		if a.HasIDs() && a.ID(i) != b.ID(i) {
			return fmt.Sprintf("flow %d id %d vs %d", i, a.ID(i), b.ID(i))
		}
	}
	return ""
}

func snapEqual(t *testing.T, ctx string, a, b *core.FlowSnapshot) {
	t.Helper()
	if d := snapDiff(a, b); d != "" {
		t.Fatalf("%s: %s", ctx, d)
	}
}

// TestSealedSnapshotsMatchDense is the CSR/dense equivalence property:
// for randomized series (accumulates, overwrites, zeroed cells, idle
// rows), every interval's snapshot from the interval-major index must
// be bitwise identical — same flow order, same float values — to the
// dense row scan.
func TestSealedSnapshotsMatchDense(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := randomSeries(seed, 120, 16)
		s.Seal()
		if s.idx.Load() == nil {
			t.Fatal("Seal did not build the index")
		}
		var snap *core.FlowSnapshot
		for ti := 0; ti < s.Intervals; ti++ {
			snap = s.Snapshot(ti, snap)
			snapEqual(t, fmt.Sprintf("seed %d interval %d", seed, ti), snap, denseSnapshot(s, ti, nil, nil))
			if bw := s.IntervalBandwidths(ti); !slices.Equal(bw, snap.Bandwidths()) {
				t.Fatalf("seed %d interval %d: IntervalBandwidths is not the snapshot's column", seed, ti)
			}
			if got := s.ActiveFlows(ti); got != snap.Len() {
				t.Fatalf("seed %d interval %d: ActiveFlows %d, snapshot holds %d", seed, ti, got, snap.Len())
			}
		}
	}
}

// TestSealedSnapshotIDsMatchDense extends the equivalence to the
// ID-stamped emission path the matrix engine uses.
func TestSealedSnapshotIDsMatchDense(t *testing.T) {
	s := randomSeries(11, 100, 12)
	s.Seal()
	tbl := core.NewFlowTable()
	rows := s.InternRows(tbl, nil)
	var snap *core.FlowSnapshot
	for ti := 0; ti < s.Intervals; ti++ {
		snap = s.SnapshotIDs(ti, snap, tbl, rows)
		snapEqual(t, fmt.Sprintf("interval %d", ti), snap, denseSnapshot(s, ti, tbl, rows))
		if snap.IDTable() != tbl {
			t.Fatalf("interval %d: ID column not stamped with the caller's table", ti)
		}
	}
}

// TestSealedBulkFillReusesSnapshot: the bulk fill must replace, not
// extend, whatever the destination held — a longer interval, an ID
// column, a stamp, a cached sorted column — with or without IDs.
func TestSealedBulkFillReusesSnapshot(t *testing.T) {
	s := randomSeries(31, 90, 10)
	tbl := core.NewFlowTable()
	rows := s.InternRows(tbl, nil)
	dense := make([]*core.FlowSnapshot, s.Intervals)
	denseIDs := make([]*core.FlowSnapshot, s.Intervals)
	for ti := 0; ti < s.Intervals; ti++ {
		dense[ti] = denseSnapshot(s, ti, nil, nil)
		denseIDs[ti] = denseSnapshot(s, ti, tbl, rows)
	}
	s.Seal()
	snap := core.NewFlowSnapshot(0)
	for ti := 0; ti < s.Intervals; ti++ {
		// Alternate the two emissions through one destination.
		snap = s.SnapshotIDs(ti, snap, tbl, rows)
		snapEqual(t, fmt.Sprintf("interval %d with IDs", ti), snap, denseIDs[ti])
		if snap.IDTable() != tbl {
			t.Fatalf("interval %d: ID column not stamped with the caller's table", ti)
		}
		sorted := slices.Clone(snap.SortedBandwidths())
		snap = s.Snapshot(s.Intervals-1-ti, snap)
		snapEqual(t, fmt.Sprintf("interval %d without IDs", s.Intervals-1-ti), snap, dense[s.Intervals-1-ti])
		if snap.IDTable() != nil {
			t.Fatalf("interval %d: stale table stamp survived a fill without IDs", ti)
		}
		if ti != s.Intervals-1-ti && slices.Equal(snap.SortedBandwidths(), sorted) {
			t.Fatalf("interval %d: stale sorted column survived the refill", ti)
		}
	}
}

// TestSealedBulkFillOrderCheckedUnderDebugInvariants: the bulk fill
// asserts the order the index has by construction instead of proving it
// per flow, so a corrupted index goes unnoticed in production — and is
// exactly what core.DebugInvariants exists to catch.
func TestSealedBulkFillOrderCheckedUnderDebugInvariants(t *testing.T) {
	s := randomSeries(37, 40, 4)
	s.Seal()
	ix := s.intervalIdx()
	ti := 0
	for ix.offsets[ti+1]-ix.offsets[ti] < 2 {
		ti++
	}
	lo := ix.offsets[ti]
	ix.rows[lo], ix.rows[lo+1] = ix.rows[lo+1], ix.rows[lo]
	ix.bw[lo], ix.bw[lo+1] = ix.bw[lo+1], ix.bw[lo]

	if snap := s.Snapshot(ti, nil); !snap.IsSorted() {
		t.Fatal("the bulk fill re-proved the order; this test no longer reaches the assertion")
	}
	core.DebugInvariants = true
	defer func() { core.DebugInvariants = false }()
	defer func() {
		if recover() == nil {
			t.Error("out-of-order bulk fill did not panic under DebugInvariants")
		}
	}()
	s.Snapshot(ti, nil)
}

// TestSeriesWriteAfterReadPanics: the first per-interval read freezes
// the series, with core.DebugInvariants off as much as on. Every write
// after it panics — adding to a cell, overwriting one, a new row, a
// record — and leaves the cells, the totals and the rows as they were,
// so every later read still sees what the first one did.
func TestSeriesWriteAfterReadPanics(t *testing.T) {
	newFlow := netip.MustParsePrefix("172.16.0.0/12")
	writes := []struct {
		name  string
		write func(s *Series)
	}{
		{"AddBits", func(s *Series) { s.AddBits(s.Flows()[0], 3, 5e8) }},
		{"SetBandwidth to zero", func(s *Series) { s.SetBandwidth(s.Flows()[0], 3, 0) }},
		{"SetRowBandwidth", func(s *Series) { s.SetRowBandwidth(0, 1, 7) }},
		{"AddRowBits", func(s *Series) { s.AddRowBits(0, 1, 7) }},
		{"RowIndex of a new flow", func(s *Series) { s.RowIndex(newFlow) }},
		{"AddRecord", func(s *Series) {
			s.AddRecord(Record{Prefix: newFlow, Time: start.Add(30 * time.Second), Span: 4 * time.Minute, Bits: 1e9})
		}},
	}
	reads := []struct {
		name string
		read func(s *Series)
	}{
		{"Snapshot", func(s *Series) { s.Snapshot(0, nil) }},
		{"SnapshotIDs", func(s *Series) {
			tbl := core.NewFlowTable()
			s.SnapshotIDs(0, nil, tbl, s.InternRows(tbl, nil))
		}},
		{"IntervalBandwidths", func(s *Series) { s.IntervalBandwidths(0) }},
		{"ActiveFlows", func(s *Series) { s.ActiveFlows(0) }},
		{"InternRows", func(s *Series) { s.InternRows(core.NewFlowTable(), nil) }},
		{"Seal", func(s *Series) { s.Seal() }},
	}
	for _, r := range reads {
		for _, w := range writes {
			s := randomSeries(41, 80, 9)
			r.read(s)
			flows, total := len(s.Flows()), s.TotalBandwidth(3)
			want := make([]*core.FlowSnapshot, s.Intervals)
			for ti := range want {
				want[ti] = denseSnapshot(s, ti, nil, nil)
			}
			if !panics(func() { w.write(s) }) {
				t.Fatalf("%s after %s did not panic", w.name, r.name)
			}
			if len(s.Flows()) != flows || s.TotalBandwidth(3) != total {
				t.Fatalf("%s after %s changed the series before panicking", w.name, r.name)
			}
			for ti := range want {
				snapEqual(t, fmt.Sprintf("%s after %s: interval %d", w.name, r.name, ti), s.Snapshot(ti, nil), want[ti])
			}
		}
	}
}

// TestSealMutationPanicsUnderDebugInvariants: turning
// core.DebugInvariants on changes nothing for a sealed series, whose
// writes panic as they do with it off (TestSeriesWriteAfterReadPanics).
func TestSealMutationPanicsUnderDebugInvariants(t *testing.T) {
	core.DebugInvariants = true
	defer func() { core.DebugInvariants = false }()
	s := NewSeries(start, time.Minute, 2)
	s.SetBandwidth(pfxA, 0, 100)
	s.Seal()
	defer func() {
		if recover() == nil {
			t.Error("AddBits on a sealed series did not panic under DebugInvariants")
		}
	}()
	s.AddBits(pfxA, 1, 1e6)
}

// TestSealedSnapshotConcurrentReaders proves the one index build is
// safe when several readers seal one series at once and then snapshot
// it — the matrix engine's access pattern: every task sharing a series
// seals it, and whichever comes first builds. The references come from
// the oracle, so no read has built the index when the readers start.
// Run with -race.
func TestSealedSnapshotConcurrentReaders(t *testing.T) {
	s := randomSeries(23, 150, 8)
	refs := make([]*core.FlowSnapshot, s.Intervals)
	for ti := 0; ti < s.Intervals; ti++ {
		refs[ti] = denseSnapshot(s, ti, nil, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Seal()
			var snap *core.FlowSnapshot
			for ti := 0; ti < s.Intervals; ti++ {
				snap = s.Snapshot(ti, snap)
				if d := snapDiff(snap, refs[ti]); d != "" {
					t.Errorf("interval %d: %s", ti, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
