package agg

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// cellOracle is what FuzzSeriesRowWrites holds a Series to: a cell map
// per prefix, the order prefixes first got a row in, and the totals
// under the same two update rules (set: total += new − old; add: total
// += bw). It knows nothing of row indices or the interval index.
type cellOracle struct {
	cells map[netip.Prefix]map[int]float64
	order []netip.Prefix
	total []float64
}

func (o *cellOracle) row(p netip.Prefix) map[int]float64 {
	r, ok := o.cells[p]
	if !ok {
		r = make(map[int]float64)
		o.cells[p] = r
		o.order = append(o.order, p)
	}
	return r
}

func (o *cellOracle) set(p netip.Prefix, t int, bw float64) {
	r := o.row(p)
	o.total[t] += bw - r[t]
	r[t] = bw
}

func (o *cellOracle) add(p netip.Prefix, t int, bw float64) {
	o.row(p)[t] += bw
	o.total[t] += bw
}

// snapshot is interval t as the oracle sees it: positive cells in
// core.ComparePrefix order.
func (o *cellOracle) snapshot(t int) *core.FlowSnapshot {
	keys := slices.Clone(o.order)
	slices.SortFunc(keys, core.ComparePrefix)
	dst := core.NewFlowSnapshot(0)
	for _, p := range keys {
		dst.Append(p, o.cells[p][t])
	}
	return dst
}

// panics reports whether f panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// FuzzSeriesRowWrites interleaves the row-indexed writes (RowIndex,
// SetRowBandwidth, AddRowBits) with the prefix-keyed ones they are the
// body of, over eight prefixes and six intervals: overwrites, zero and
// negative values, intervals outside the window (a panic; the prefix
// forms leave no row behind), a row created mid-run with no cell, and
// writes after the series froze. The first read or Seal freezes it:
// every write after that panics and changes nothing, whether or not the
// first byte turns core.DebugInvariants on. Row indices are resolved
// once per prefix and reused for the rest of the run. After every op
// the row order, the freeze and the totals must equal the oracle's;
// reads compare snapshots and every cell.
// AddRecord rides along as the writer that resolves a row for several
// cells at once: a record starting mid-interval and running for a
// number of half-intervals, so it straddles either window edge, covers
// the whole window, or misses it — and then must leave no row — and
// must report whether anything landed — or, frozen, panic exactly when
// it would have landed.
//
// Two bytes an op: kind in a's top three bits, prefix in its low three;
// interval (−1..6) in b's bits 4–6, value in its low four. Kind 7 with
// b = 0 is the full read; otherwise b's low four bits are also the
// record's span in half-intervals (0: a point record).
func FuzzSeriesRowWrites(f *testing.F) {
	// Row writes, an overwrite, a zero and a negative; read; a refused
	// write.
	f.Add([]byte{0, 0x40, 0x13, 0x41, 0x23, 0x40, 0x10, 0x60, 0x22, 0x01, 0x21, 0xa0, 0x10, 0x42, 0x34, 0xe0, 0})
	// A prefix-keyed fill, a bare new row between two row writes, reads.
	f.Add([]byte{0, 0x05, 0x15, 0x25, 0x26, 0x45, 0x17, 0x83, 0, 0x65, 0x18, 0xa0, 0x20, 0x03, 0x29, 0xe0, 0})
	// Seal then write, invariants off and on: both refused.
	f.Add([]byte{0, 0x41, 0x13, 0xc0, 0, 0x41, 0x24, 0x02, 0x15, 0xe0, 0})
	f.Add([]byte{1, 0x41, 0x13, 0xa0, 0x10, 0xc0, 0, 0x41, 0x24, 0x02, 0x15, 0x86, 0, 0x61, 0x11, 0xe0, 0})
	// Intervals outside the window, keyed (no row) and by row (row stays).
	f.Add([]byte{0, 0x02, 0x03, 0x22, 0x73, 0x43, 0x04, 0x64, 0x75, 0xe0, 0})
	// Span records: across the left edge, across the right edge, over the
	// whole window; one wholly after and one wholly before it, on new
	// prefixes, then a keyed write whose row must be the next one.
	f.Add([]byte{0, 0xe1, 0x03, 0xe2, 0x63, 0xe1, 0x0f, 0xe3, 0x72, 0xe4, 0x01, 0x05, 0x15, 0xe0, 0})
	// Sealed, invariants on: a record that lands panics (new row or old),
	// one that misses the window does not; a point record after a read.
	f.Add([]byte{1, 0x41, 0x13, 0xc0, 0, 0xe1, 0x22, 0xe5, 0x22, 0xe5, 0x72, 0xa0, 0x10, 0x01, 0x14, 0xe1, 0x30, 0xe0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		debug := ops[0]&1 != 0
		core.DebugInvariants = debug
		defer func() { core.DebugInvariants = false }()

		const intervals = 6
		// Not in prefix order, so the sorted emission goes through the
		// row permutation.
		pool := []netip.Prefix{
			netip.MustParsePrefix("172.16.0.0/12"), pfxC, pfxA, netip.MustParsePrefix("10.1.0.0/16"),
			pfxB, netip.MustParsePrefix("10.0.0.0/9"), netip.MustParsePrefix("203.0.113.0/24"), netip.MustParsePrefix("1.0.0.0/8"),
		}
		values := [16]float64{0, 1, -3, 2.5, 1e6, 7e8, 0.125, 60, -0.5, 3e9, 1e-3, 42, 0, 5e5, -1e6, 9}

		s := NewSeries(start, time.Minute, intervals)
		o := &cellOracle{cells: make(map[netip.Prefix]map[int]float64), total: make([]float64, intervals)}
		rowOf := make(map[netip.Prefix]int) // resolved once, reused
		frozen := false                     // by the first read or Seal

		compareAll := func(ctx string) {
			t.Helper()
			for ti := 0; ti < intervals; ti++ {
				snapEqual(t, ctx, s.Snapshot(ti, nil), o.snapshot(ti))
			}
			if s.idx.Load() == nil {
				t.Fatalf("%s: a read left no index", ctx)
			}
			for p, cells := range o.cells {
				row, ok := s.Row(p)
				if !ok {
					t.Fatalf("%s: %v has no row", ctx, p)
				}
				for ti, got := range row {
					if got != cells[ti] {
						t.Fatalf("%s: %v interval %d = %v, oracle %v", ctx, p, ti, got, cells[ti])
					}
				}
			}
		}

		for i := 1; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			kind, p := a>>5, pool[a&7]
			ti, v := int(b>>4&7)-1, values[b&15]
			badT := ti < 0 || ti >= intervals
			_, known := o.cells[p]
			switch kind {
			case 0, 1: // prefix-keyed
				got := panics(func() {
					if kind == 0 {
						s.SetBandwidth(p, ti, v)
					} else {
						s.AddBits(p, ti, v)
					}
				})
				if want := badT || frozen; got != want {
					t.Fatalf("op %d: keyed write (t=%d, frozen %v, invariants %v) panicked %v", i, ti, frozen, debug, got)
				}
				if !got {
					if kind == 0 {
						o.set(p, ti, v)
					} else {
						o.add(p, ti, v/time.Minute.Seconds())
					}
				}
			case 2, 3, 4: // row-indexed; 4 resolves the row and writes nothing
				row, resolved := rowOf[p]
				if !resolved {
					got := panics(func() { row = s.RowIndex(p) })
					if want := !known && frozen; got != want {
						t.Fatalf("op %d: RowIndex(%v) (known %v, frozen %v, invariants %v) panicked %v", i, p, known, frozen, debug, got)
					}
					if got {
						break
					}
					rowOf[p] = row
					if !known {
						o.row(p)
					}
				}
				if s.Flows()[row] != p {
					t.Fatalf("op %d: row %d is %v, resolved for %v", i, row, s.Flows()[row], p)
				}
				if kind == 4 {
					break
				}
				got := panics(func() {
					if kind == 2 {
						s.SetRowBandwidth(row, ti, v)
					} else {
						s.AddRowBits(row, ti, v)
					}
				})
				if want := badT || frozen; got != want {
					t.Fatalf("op %d: row write (t=%d, frozen %v, invariants %v) panicked %v", i, ti, frozen, debug, got)
				}
				if !got {
					if kind == 2 {
						o.set(p, ti, v)
					} else {
						o.add(p, ti, v/time.Minute.Seconds())
					}
				}
			case 5:
				if !badT {
					snapEqual(t, "read", s.Snapshot(ti, nil), o.snapshot(ti))
					frozen = true
				}
			case 6:
				s.Seal()
				frozen = true
			case 7:
				if b == 0 {
					compareAll("full read")
					frozen = true
					break
				}
				// The record runs from the middle of interval ti for b&15
				// half-intervals; the oracle adds each interval's share of it.
				const half = int64(time.Minute / 2)
				from, span := int64(2*ti+1)*half, int64(b&15)*half
				type cell struct {
					t    int
					bits float64
				}
				var cells []cell
				for w := 0; w < intervals; w++ {
					lo, hi := max(from, int64(2*w)*half), min(from+span, int64(2*w+2)*half)
					switch {
					case span == 0 && w == ti, hi > lo && hi-lo == span:
						cells = append(cells, cell{w, v}) // the whole record
					case hi > lo:
						cells = append(cells, cell{w, v * (float64(hi-lo) / float64(span))})
					}
				}
				var landed bool
				got := panics(func() {
					landed = s.AddRecord(Record{Prefix: p, Time: start.Add(time.Duration(from)), Span: time.Duration(span), Bits: v})
				})
				if want := len(cells) > 0 && frozen; got != want {
					t.Fatalf("op %d: AddRecord (%d cells in the window, frozen %v, invariants %v) panicked %v", i, len(cells), frozen, debug, got)
				}
				if !got {
					if landed != (len(cells) > 0) {
						t.Fatalf("op %d: AddRecord reported landed = %v with %d cells in the window", i, landed, len(cells))
					}
					for _, c := range cells {
						o.add(p, c.t, c.bits/time.Minute.Seconds())
					}
				}
			}
			if got := s.idx.Load() != nil; got != frozen {
				t.Fatalf("op %d: indexed = %v, frozen %v", i, got, frozen)
			}
			if !slices.Equal(s.Flows(), o.order) {
				t.Fatalf("op %d: row order %v, oracle %v", i, s.Flows(), o.order)
			}
			for ti := range o.total {
				if got := s.TotalBandwidth(ti); got != o.total[ti] {
					t.Fatalf("op %d: total[%d] = %v, oracle %v", i, ti, got, o.total[ti])
				}
			}
		}
		compareAll("end of run")
	})
}
