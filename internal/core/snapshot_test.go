package core

import (
	"math"
	"net/netip"
	"sort"
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

func TestSnapshotOutOfOrderNeedsSort(t *testing.T) {
	s := NewFlowSnapshot(0)
	s.Append(pfx(3), 30)
	s.Append(pfx(1), 10)
	if s.IsSorted() {
		t.Fatal("out-of-order append not detected")
	}
	s.Sort()
	if !s.IsSorted() || s.Key(0) != pfx(1) || s.Bandwidth(0) != 10 {
		t.Errorf("Sort broken: keys=%v bw=%v", s.Keys(), s.Bandwidths())
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

// TestSnapshotSortCoalescesDuplicates: merging partial sources may
// Append the same prefix twice; Sort must leave a strictly ordered
// snapshot with the bandwidths summed, not a duplicate key the
// pipeline's sorted gate would wave through.
func TestSnapshotSortCoalescesDuplicates(t *testing.T) {
	s := NewFlowSnapshot(0)
	s.Append(pfx(1), 10)
	s.Append(pfx(0), 5)
	s.Append(pfx(1), 30)
	s.Sort()
	if s.Len() != 2 || !s.verifySorted() {
		t.Fatalf("len=%d keys=%v", s.Len(), s.Keys())
	}
	if i, ok := s.Lookup(pfx(1)); !ok || s.Bandwidth(i) != 40 {
		t.Errorf("duplicate not coalesced: %v %v", s.Keys(), s.Bandwidths())
	}
	if s.TotalLoad() != 45 {
		t.Errorf("total = %v, want 45", s.TotalLoad())
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

func TestElephantSetBasics(t *testing.T) {
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

func TestSnapshotSortCarriesIDs(t *testing.T) {
	s := NewFlowSnapshot(4)
	// Out of order, with a duplicate prefix (same table => same ID).
	s.AppendID(pfx(2), 12, 30)
	s.AppendID(pfx(0), 10, 10)
	s.AppendID(pfx(2), 12, 5)
	s.AppendID(pfx(1), 11, 20)
	if s.IsSorted() {
		t.Fatal("out-of-order snapshot claims sorted")
	}
	s.Sort()
	if !s.HasIDs() {
		t.Fatal("Sort dropped the ID column")
	}
	wantKeys := []netip.Prefix{pfx(0), pfx(1), pfx(2)}
	wantIDs := []uint32{10, 11, 12}
	wantBW := []float64{10, 20, 35}
	for i := range wantKeys {
		if s.Key(i) != wantKeys[i] || s.ID(i) != wantIDs[i] || s.Bandwidth(i) != wantBW[i] {
			t.Fatalf("row %d = %v/%d/%v, want %v/%d/%v",
				i, s.Key(i), s.ID(i), s.Bandwidth(i), wantKeys[i], wantIDs[i], wantBW[i])
		}
	}
}
