package agg

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

var (
	start = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	pfxA  = netip.MustParsePrefix("10.0.0.0/8")
	pfxB  = netip.MustParsePrefix("192.0.2.0/24")
	pfxC  = netip.MustParsePrefix("198.51.100.0/24")
)

func TestNewSeriesPanics(t *testing.T) {
	for _, tc := range []struct {
		name      string
		interval  time.Duration
		intervals int
	}{
		{"zero interval", 0, 5},
		{"negative interval", -time.Minute, 5},
		{"zero intervals", time.Minute, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			NewSeries(start, tc.interval, tc.intervals)
		}()
	}
}

// TestMisusePanicsWithItsMessage: a call outside a series' window or
// with a stale row→ID mapping panics with agg's own message, not with
// whatever index error the body would hit next.
func TestMisusePanicsWithItsMessage(t *testing.T) {
	NewSeries(start, time.Nanosecond, 1) // the smallest interval is valid
	s := NewSeries(start, time.Minute, 2)
	row := s.RowIndex(pfxA)
	for _, tc := range []struct {
		want string
		f    func()
	}{
		{"write to interval 2 out of [0,2)", func() { s.AddRowBits(row, 2, 1) }},
		{"write to interval -1 out of [0,2)", func() { s.SetRowBandwidth(row, -1, 1) }},
		{"stale InternRows", func() { s.SnapshotIDs(0, nil, core.NewFlowTable(), nil) }},
		{"ActiveFlows: interval -1 out of [0,2)", func() { s.ActiveFlows(-1) }},
		{"ActiveFlows: interval 2 out of [0,2)", func() { s.ActiveFlows(2) }},
	} {
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.f()
			return
		}()
		if !strings.Contains(got, tc.want) {
			t.Errorf("panic %q, want one containing %q", got, tc.want)
		}
	}
}

func TestAddBitsAveragesOverInterval(t *testing.T) {
	s := NewSeries(start, 5*time.Minute, 2)
	s.AddBits(pfxA, 0, 300e6) // 300 Mbit over 300 s = 1 Mbit/s
	if got := s.Bandwidth(pfxA, 0); !floatEq(got, 1e6) {
		t.Errorf("bandwidth = %v, want 1e6", got)
	}
	s.AddBits(pfxA, 0, 300e6) // accumulates
	if got := s.Bandwidth(pfxA, 0); !floatEq(got, 2e6) {
		t.Errorf("after second add = %v, want 2e6", got)
	}
	if got := s.TotalBandwidth(0); !floatEq(got, 2e6) {
		t.Errorf("total = %v, want 2e6", got)
	}
	if got := s.Bandwidth(pfxA, 1); got != 0 {
		t.Errorf("untouched interval = %v, want 0", got)
	}
}

func TestSetBandwidthMaintainsTotal(t *testing.T) {
	s := NewSeries(start, time.Minute, 1)
	s.SetBandwidth(pfxA, 0, 100)
	s.SetBandwidth(pfxB, 0, 50)
	if got := s.TotalBandwidth(0); !floatEq(got, 150) {
		t.Fatalf("total = %v, want 150", got)
	}
	s.SetBandwidth(pfxA, 0, 70) // overwrite, not accumulate
	if got := s.Bandwidth(pfxA, 0); !floatEq(got, 70) {
		t.Errorf("bandwidth = %v, want 70", got)
	}
	if got := s.TotalBandwidth(0); !floatEq(got, 120) {
		t.Errorf("total after overwrite = %v, want 120", got)
	}
}

func TestUnknownFlow(t *testing.T) {
	s := NewSeries(start, time.Minute, 1)
	if got := s.Bandwidth(pfxA, 0); got != 0 {
		t.Errorf("unknown flow bandwidth = %v", got)
	}
	if _, ok := s.Row(pfxA); ok {
		t.Error("unknown flow has a row")
	}
	if s.NumFlows() != 0 {
		t.Errorf("NumFlows = %d", s.NumFlows())
	}
}

func TestSnapshotSkipsZeros(t *testing.T) {
	s := NewSeries(start, time.Minute, 2)
	s.SetBandwidth(pfxA, 0, 10)
	s.SetBandwidth(pfxB, 1, 20)
	snap := s.Snapshot(0, nil)
	if snap.Len() != 1 || snap.Key(0) != pfxA || snap.Bandwidth(0) != 10 {
		t.Errorf("snapshot 0 = %v %v", snap.Keys(), snap.Bandwidths())
	}
	// Reuse: the same snapshot must be reset and refilled.
	snap2 := s.Snapshot(1, snap)
	if snap2 != snap {
		t.Error("dst snapshot not reused")
	}
	if snap.Len() != 1 || snap.Key(0) != pfxB || snap.Bandwidth(0) != 20 {
		t.Errorf("snapshot 1 (reused) = %v %v", snap.Keys(), snap.Bandwidths())
	}
}

// TestSnapshotConcurrentReaders: once aggregation is done, many
// goroutines may snapshot the same finished series at once with
// distinct dst buffers — the contract engine workers rely on when one
// link's series is classified under several schemes. The interval
// index, which no read has built when the readers start, must build
// once and race-free AND every concurrent reader must see exactly the
// columns the dense oracle finds. Run with -race.
func TestSnapshotConcurrentReaders(t *testing.T) {
	s := NewSeries(start, time.Minute, 4)
	for i := 0; i < 300; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		s.SetBandwidth(p, i%4, float64(1+i))
	}
	want := make([]*core.FlowSnapshot, 4)
	for t0 := 0; t0 < 4; t0++ {
		want[t0] = denseSnapshot(s, t0, nil, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns a distinct dst buffer, reused across
			// its own intervals only.
			var snap *core.FlowSnapshot
			for t0 := 0; t0 < 4; t0++ {
				snap = s.Snapshot(t0, snap)
				if !snap.IsSorted() {
					t.Error("unsorted snapshot from concurrent reader")
					return
				}
				ref := want[t0]
				if snap.Len() != ref.Len() {
					t.Errorf("interval %d: concurrent len %d != sequential %d", t0, snap.Len(), ref.Len())
					return
				}
				for i := 0; i < snap.Len(); i++ {
					if snap.Key(i) != ref.Key(i) || snap.Bandwidth(i) != ref.Bandwidth(i) {
						t.Errorf("interval %d: column %d diverges from sequential reference", t0, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotSortedOrder: snapshots come out in ComparePrefix order no
// matter the insertion order, pre-sorted for the pipeline.
func TestSnapshotSortedOrder(t *testing.T) {
	s := NewSeries(start, time.Minute, 1)
	early := netip.MustParsePrefix("1.0.0.0/8")
	for _, p := range []netip.Prefix{pfxB, pfxA, early} { // reverse order
		s.SetBandwidth(p, 0, 1)
	}
	snap := s.Snapshot(0, nil)
	if !snap.IsSorted() || snap.Len() != 3 {
		t.Fatalf("sorted=%v len=%d", snap.IsSorted(), snap.Len())
	}
	if snap.Key(0) != early || snap.Key(1) != pfxA || snap.Key(2) != pfxB {
		t.Errorf("order: %v", snap.Keys())
	}
}

func TestIntervalTimeAndOf(t *testing.T) {
	s := NewSeries(start, 5*time.Minute, 12)
	if got := s.IntervalTime(3); !got.Equal(start.Add(15 * time.Minute)) {
		t.Errorf("IntervalTime(3) = %v", got)
	}
}

func TestActiveFlows(t *testing.T) {
	s := NewSeries(start, time.Minute, 2)
	s.SetBandwidth(pfxA, 0, 10)
	s.SetBandwidth(pfxB, 0, 20)
	s.SetBandwidth(pfxC, 1, 30)
	if got := s.ActiveFlows(0); got != 2 {
		t.Errorf("ActiveFlows(0) = %d, want 2", got)
	}
	if got := s.ActiveFlows(1); got != 1 {
		t.Errorf("ActiveFlows(1) = %d, want 1", got)
	}
}

// TestActiveFlowsOverwriteToZero: the count reflects the cells as the
// writing left them, in particular a positive cell SetBandwidth
// overwrote back to zero — a flow that went idle — and one revived
// after that.
func TestActiveFlowsOverwriteToZero(t *testing.T) {
	s := NewSeries(start, time.Minute, 1)
	s.SetBandwidth(pfxA, 0, 10)
	s.SetBandwidth(pfxB, 0, 20)
	s.SetBandwidth(pfxA, 0, 0) // overwrite to zero: flow goes idle
	s.SetBandwidth(pfxA, 0, 0) // idempotent: still idle
	s.SetBandwidth(pfxB, 0, 0)
	s.SetBandwidth(pfxB, 0, 5) // revives
	s.AddBits(pfxC, 0, 60)     // a fresh flow becomes active once
	s.AddBits(pfxC, 0, 60)
	if got := s.ActiveFlows(0); got != 2 {
		t.Errorf("ActiveFlows = %d, want 2", got)
	}
	// The count must agree with a direct row scan.
	scan := 0
	for _, p := range s.Flows() {
		if s.Bandwidth(p, 0) > 0 {
			scan++
		}
	}
	if got := s.ActiveFlows(0); got != scan {
		t.Errorf("count %d != row scan %d", got, scan)
	}
}

func TestRebin(t *testing.T) {
	s := NewSeries(start, time.Minute, 6)
	// Flow A: 60 bit/s for all six minutes -> 60 bit/s at any bin width.
	for tt := 0; tt < 6; tt++ {
		s.SetBandwidth(pfxA, tt, 60)
	}
	// Flow B: 120 bit/s in minute 0 only -> 40 bit/s over [0,3).
	s.SetBandwidth(pfxB, 0, 120)

	r, dropped, err := s.Rebin(3 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0 for an evenly dividing rebin", dropped)
	}
	if r.Intervals != 2 || r.Interval != 3*time.Minute {
		t.Fatalf("geometry: %d x %v", r.Intervals, r.Interval)
	}
	if got := r.Bandwidth(pfxA, 0); !floatEq(got, 60) {
		t.Errorf("A[0] = %v, want 60 (time average)", got)
	}
	if got := r.Bandwidth(pfxB, 0); !floatEq(got, 40) {
		t.Errorf("B[0] = %v, want 40", got)
	}
	if got := r.Bandwidth(pfxB, 1); got != 0 {
		t.Errorf("B[1] = %v, want 0", got)
	}
	// Totals are conserved (time-weighted).
	if got, want := r.TotalBandwidth(0), (60.0*3+120)/3; !floatEq(got, want) {
		t.Errorf("total[0] = %v, want %v", got, want)
	}
	// A cell below 1 bit/s is still traffic.
	tiny := NewSeries(start, time.Minute, 2)
	tiny.SetBandwidth(pfxA, 1, 0.5)
	if r, _, err := tiny.Rebin(2 * time.Minute); err != nil || r.Bandwidth(pfxA, 0) != 0.25 {
		t.Errorf("0.5 bit/s over 2 minutes rebinned to %v (err %v), want 0.25", r.Bandwidth(pfxA, 0), err)
	}
}

func TestRebinIdentity(t *testing.T) {
	s := NewSeries(start, time.Minute, 4)
	r, dropped, err := s.Rebin(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r != s {
		t.Error("identity rebin must return the same series")
	}
	if dropped != 0 {
		t.Errorf("identity rebin dropped = %d, want 0", dropped)
	}
}

// TestRebinReportsTruncation: when Intervals % k != 0 the trailing
// intervals cannot fill a whole coarse slot; they are dropped and the
// count is surfaced instead of silently vanishing (regression for the
// historical silent truncation).
func TestRebinReportsTruncation(t *testing.T) {
	s := NewSeries(start, time.Minute, 7) // 7 = 2*3 + 1 trailing
	for tt := 0; tt < 7; tt++ {
		s.SetBandwidth(pfxA, tt, 30)
	}
	s.SetBandwidth(pfxB, 6, 999) // lives only in the truncated tail
	r, dropped, err := s.Rebin(3 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if r.Intervals != 2 {
		t.Errorf("Intervals = %d, want 2", r.Intervals)
	}
	if _, ok := r.Row(pfxB); ok {
		t.Error("flow living only in truncated tail intervals must not appear")
	}
	if got := r.Bandwidth(pfxA, 1); !floatEq(got, 30) {
		t.Errorf("A[1] = %v, want 30", got)
	}
}

func TestRebinErrors(t *testing.T) {
	s := NewSeries(start, 2*time.Minute, 4)
	if _, _, err := s.Rebin(3 * time.Minute); err == nil {
		t.Error("non-multiple interval accepted")
	}
	for _, iv := range []time.Duration{0, -2 * time.Minute} {
		if _, _, err := s.Rebin(iv); err == nil {
			t.Errorf("interval %v accepted", iv)
		}
	}
	short := NewSeries(start, time.Minute, 2)
	if _, _, err := short.Rebin(3 * time.Minute); err == nil {
		t.Error("rebin beyond series length accepted")
	}
}

func floatEq(a, b float64) bool { return floatEq2(a, b, 1e-9) }

func floatEq2(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
