package core

import (
	"math"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestSnapshotAppendSortedOrder(t *testing.T) {
	s := NewFlowSnapshot(4)
	s.Append(pfx(0), 10)
	s.Append(pfx(1), 20)
	s.Append(pfx(5), 30)
	if !s.IsSorted() {
		t.Fatal("in-order appends must keep the snapshot sorted")
	}
	if s.Len() != 3 || s.TotalLoad() != 60 {
		t.Fatalf("len=%d total=%v", s.Len(), s.TotalLoad())
	}
	if s.Key(1) != pfx(1) || s.Bandwidth(1) != 20 {
		t.Errorf("column mismatch at 1: %v %v", s.Key(1), s.Bandwidth(1))
	}
}

func TestSnapshotDropsNonPositive(t *testing.T) {
	s := NewFlowSnapshot(0)
	s.Append(pfx(0), 0)
	s.Append(pfx(1), -5)
	s.Append(pfx(2), 7)
	if s.Len() != 1 || s.TotalLoad() != 7 {
		t.Errorf("non-positive bandwidths must be dropped: len=%d total=%v", s.Len(), s.TotalLoad())
	}
}

// TestSnapshotDropsNaN: a NaN bandwidth is not positive, so it is
// dropped like zero — by Append and AppendID — and never reaches the
// total or the columns.
func TestSnapshotDropsNaN(t *testing.T) {
	s := NewFlowSnapshot(0)
	s.Append(pfx(0), math.NaN())
	s.AppendID(pfx(1), 1, math.NaN())
	if s.Len() != 0 || s.TotalLoad() != 0 {
		t.Errorf("NaN bandwidths must be dropped: len=%d total=%v", s.Len(), s.TotalLoad())
	}
}

// TestSnapshotSortedBandwidthsInf: +Inf is positive and stays; the
// sorted view is ascending with it last, on both sides of the radix
// sort's size cut-over.
func TestSnapshotSortedBandwidthsInf(t *testing.T) {
	for _, n := range []int{5, 300} {
		s := NewFlowSnapshot(n)
		for i := 0; i < n; i++ {
			bw := float64((i*7919)%n + 1)
			if i == n/2 {
				bw = math.Inf(1)
			}
			s.Append(pfx(i), bw)
		}
		sorted := s.SortedBandwidths()
		if len(sorted) != n || !sort.Float64sAreSorted(sorted) || !math.IsInf(sorted[n-1], 1) {
			t.Errorf("n=%d: sorted view %v..., want ascending with +Inf last", n, sorted[max(0, n-3):])
		}
	}
}

// TestSnapshotOutOfOrderNeedsSort: a snapshot has no repair path. An
// append out of ComparePrefix order, or of a prefix already appended,
// marks it unsorted, and only a Reset and an in-order refill clear it.
func TestSnapshotOutOfOrderNeedsSort(t *testing.T) {
	s := NewFlowSnapshot(0)
	s.Append(pfx(3), 30)
	s.Append(pfx(1), 10)
	if s.IsSorted() {
		t.Fatal("out-of-order append not detected")
	}
	s.Reset()
	s.Append(pfx(1), 10)
	s.Append(pfx(1), 30)
	if s.IsSorted() {
		t.Fatal("repeated prefix not detected")
	}
	s.Reset()
	s.Append(pfx(1), 10)
	s.Append(pfx(3), 30)
	if !s.IsSorted() || s.Key(0) != pfx(1) || s.TotalLoad() != 40 {
		t.Errorf("in-order refill: sorted=%v keys=%v total=%v", s.IsSorted(), s.Keys(), s.TotalLoad())
	}
}

func TestSnapshotPrefixLengthOrder(t *testing.T) {
	a16 := netip.MustParsePrefix("10.0.0.0/16")
	a24 := netip.MustParsePrefix("10.0.0.0/24")
	s := NewFlowSnapshot(0)
	s.Append(a16, 1)
	s.Append(a24, 2) // same address, longer prefix: still ascending
	if !s.IsSorted() {
		t.Error("same-address longer prefix must sort after shorter")
	}
	if i, ok := s.Lookup(a24); !ok || i != 1 {
		t.Errorf("Lookup(/24) = %d, %v", i, ok)
	}
}

func TestSnapshotResetReuse(t *testing.T) {
	s := NewFlowSnapshot(2)
	s.Append(pfx(2), 5)
	s.Append(pfx(1), 5) // unsorted
	s.Reset()
	if s.Len() != 0 || s.TotalLoad() != 0 || !s.IsSorted() {
		t.Fatal("Reset incomplete")
	}
	s.Append(pfx(0), 3)
	if s.Len() != 1 || s.TotalLoad() != 3 {
		t.Error("reuse after Reset broken")
	}
}

func TestSnapshotLookup(t *testing.T) {
	s := snap(10, 20, 30)
	if i, ok := s.Lookup(pfx(1)); !ok || i != 1 {
		t.Errorf("Lookup(pfx(1)) = %d, %v", i, ok)
	}
	if _, ok := s.Lookup(pfx(9)); ok {
		t.Error("Lookup found an absent flow")
	}
}

func TestSnapshotFromMap(t *testing.T) {
	m := map[netip.Prefix]float64{pfx(3): 30, pfx(0): 10, pfx(1): 0}
	s := SnapshotFromMap(m, nil)
	if !s.IsSorted() || s.Len() != 2 {
		t.Fatalf("sorted=%v len=%d", s.IsSorted(), s.Len())
	}
	if s.Key(0) != pfx(0) || s.Key(1) != pfx(3) {
		t.Errorf("keys = %v", s.Keys())
	}
	// Reuse the same snapshot.
	s2 := SnapshotFromMap(map[netip.Prefix]float64{pfx(7): 1}, s)
	if s2 != s || s.Len() != 1 || s.Key(0) != pfx(7) {
		t.Error("dst reuse broken")
	}
}

// TestSnapshotFromMapTotalIgnoresMapOrder: the total is a fold over the
// appended column, so a map appended in iteration order would round
// differently from one build to the next. Here 1e16 + 1 + 1 folded in
// ComparePrefix order is 1e16 (each 1 is lost to rounding), while
// folding the two 1s first gives 1.0000000000000002e16.
func TestSnapshotFromMapTotalIgnoresMapOrder(t *testing.T) {
	big := netip.MustParsePrefix("10.0.0.0/8")
	small1 := netip.MustParsePrefix("11.0.0.0/8")
	small2 := netip.MustParsePrefix("12.0.0.0/8")
	want := NewFlowSnapshot(3)
	want.Append(big, 1e16)
	want.Append(small1, 1)
	want.Append(small2, 1)
	if want.TotalLoad() != 1e16 {
		t.Fatalf("canonical-order fold = %v, want 1e16", want.TotalLoad())
	}
	for i := 0; i < 200; i++ {
		m := map[netip.Prefix]float64{big: 1e16, small1: 1, small2: 1}
		s := SnapshotFromMap(m, nil)
		if s.TotalLoad() != want.TotalLoad() || !slices.Equal(s.Keys(), want.Keys()) {
			t.Fatalf("build %d: total %v over %v, want %v over %v", i, s.TotalLoad(), s.Keys(), want.TotalLoad(), want.Keys())
		}
	}
}

func TestElephantSetBasics(t *testing.T) {
	for n, flows := range [][]netip.Prefix{{}, {pfx(1)}, {pfx(1), pfx(1)}} {
		if got := NewElephantSet(flows...).Len(); got != min(n, 1) {
			t.Errorf("NewElephantSet(%v) has %d flows, want %d", flows, got, min(n, 1))
		}
	}
	e := NewElephantSet(pfx(5), pfx(1), pfx(5), pfx(3))
	if e.Len() != 3 {
		t.Fatalf("len = %d, want 3 (deduplicated)", e.Len())
	}
	for _, p := range []netip.Prefix{pfx(1), pfx(3), pfx(5)} {
		if !e.Contains(p) {
			t.Errorf("missing %v", p)
		}
	}
	if e.Contains(pfx(2)) {
		t.Error("phantom member")
	}
	flows := e.Flows()
	for i := 1; i < len(flows); i++ {
		if ComparePrefix(flows[i-1], flows[i]) >= 0 {
			t.Error("Flows not sorted")
		}
	}
}

func TestElephantSetEqualAndJaccard(t *testing.T) {
	a := NewElephantSet(pfx(0), pfx(1), pfx(2))
	b := NewElephantSet(pfx(2), pfx(1), pfx(0))
	if !a.Equal(b) {
		t.Error("order-independent equality broken")
	}
	c := NewElephantSet(pfx(1), pfx(2), pfx(3))
	if a.Equal(c) {
		t.Error("distinct sets compare equal")
	}
	if j := a.Jaccard(c); j != 0.5 {
		t.Errorf("jaccard = %v, want 0.5 (2 common / 4 union)", j)
	}
	if j := (ElephantSet{}).Jaccard(ElephantSet{}); j != 1 {
		t.Errorf("empty-vs-empty jaccard = %v, want 1", j)
	}
}

func TestMergeElephants(t *testing.T) {
	s := snap(10, 20, 30) // pfx(0..2)
	out := mergeElephantsArena(s, Verdict{
		Indices: []int{0, 2},
		Offline: []netip.Prefix{pfx(1), pfx(7)},
	}, nil)
	want := NewElephantSet(pfx(0), pfx(1), pfx(2), pfx(7))
	if !out.Equal(want) {
		t.Errorf("merge = %v, want %v", out.Flows(), want.Flows())
	}
}

func TestComparePrefix(t *testing.T) {
	a := netip.MustParsePrefix("10.0.0.0/16")
	b := netip.MustParsePrefix("10.0.0.0/24")
	c := netip.MustParsePrefix("11.0.0.0/8")
	if ComparePrefix(a, b) >= 0 || ComparePrefix(b, a) <= 0 {
		t.Error("length tie-break broken")
	}
	if ComparePrefix(a, c) >= 0 || ComparePrefix(a, a) != 0 {
		t.Error("address ordering broken")
	}
}

func TestSnapshotIDColumn(t *testing.T) {
	s := NewFlowSnapshot(4)
	s.AppendID(pfx(0), 7, 10)
	s.AppendID(pfx(1), 3, 20)
	s.AppendID(pfx(2), 9, 0) // dropped like Append
	if !s.HasIDs() || s.Len() != 2 {
		t.Fatalf("HasIDs=%v Len=%d", s.HasIDs(), s.Len())
	}
	if s.ID(0) != 7 || s.ID(1) != 3 {
		t.Errorf("ids = %v", s.IDs())
	}
	// A plain Append breaks the all-or-nothing column.
	s.Append(pfx(3), 5)
	if s.HasIDs() {
		t.Error("mixed appends still claim a complete ID column")
	}
	s.Reset()
	if !s.HasIDs() || s.Len() != 0 {
		t.Error("reset snapshot must be trivially ID-complete")
	}
}

// TestSnapshotBookkeeping: the flags and caches beside the columns
// follow every write — Reset drops the table stamp, CopyFrom carries the
// sorted flag, Append invalidates the sorted column, AppendID keeps a
// flow under 1 bit/s — and FillRows, under DebugInvariants, refuses the
// producer bugs it is vouched against.
func TestSnapshotBookkeeping(t *testing.T) {
	s := NewFlowSnapshot(2)
	s.SetIDTable(NewFlowTable())
	s.Reset()
	if s.IDTable() != nil {
		t.Error("Reset kept the table stamp")
	}
	s.AppendID(pfx(0), 0, 0.5)
	if s.Len() != 1 {
		t.Errorf("AppendID at 0.5 bit/s: %d flows, want 1", s.Len())
	}
	s.SortedBandwidths()
	s.Append(pfx(1), 0.25)
	if got := s.SortedBandwidths(); !slices.Equal(got, []float64{0.25, 0.5}) {
		t.Errorf("sorted column %v after Append, want [0.25 0.5]", got)
	}
	unsorted := NewFlowSnapshot(2)
	unsorted.Append(pfx(1), 1)
	unsorted.Append(pfx(0), 1)
	s.CopyFrom(unsorted)
	if s.IsSorted() {
		t.Error("CopyFrom of an unsorted snapshot reads as sorted")
	}

	defer func(on bool) { DebugInvariants = on }(DebugInvariants)
	DebugInvariants = true
	keys := []netip.Prefix{pfx(0), pfx(1)}
	for _, tc := range []struct {
		want string
		rows []int32
		bw   []float64
	}{
		{"keys not in strictly ascending ComparePrefix order", []int32{1, 0}, []float64{1, 1}},
		{"keys not in strictly ascending ComparePrefix order", []int32{0, 0}, []float64{1, 1}},
		{"non-positive bandwidth 0", []int32{0, 1}, []float64{1, 0}},
	} {
		if got := panicMessage(func() { s.FillRows(tc.rows, tc.bw, keys, nil) }); !strings.Contains(got, tc.want) {
			t.Errorf("panic %q, want one containing %q", got, tc.want)
		}
	}
}
