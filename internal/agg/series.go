// Package agg implements the measurement pipeline of the reproduction:
// it attributes decoded packets to BGP prefix flows by longest-prefix
// match, accumulates bytes over fixed measurement intervals (the paper's
// default is 5 minutes) and produces per-flow average-bandwidth series —
// the x_j(t) values every classification scheme consumes.
//
// A Series is filled one way and read one way, in that order. Every
// ingest substrate reaches it as a RecordSource drained by Collect
// (AddRecord, the apportioning arithmetic the stream accumulator
// shares); the synthetic generator sets cells directly. Storage is a
// row-major flow×interval matrix, and the one write body is
// row-indexed: RowIndex resolves (or creates) a flow's row — the only
// prefix hash a write needs — and SetRowBandwidth / AddRowBits write a
// cell of it. A writer whose cells come in runs of one flow (the
// generator, Rebin, the sampling experiment) resolves the row once per
// flow; SetBandwidth and AddBits are the same body for a single cell
// named by prefix. Rows are in first-write order, which is the order
// Flows reports. Every per-interval read — Snapshot, SnapshotIDs,
// IntervalBandwidths, ActiveFlows, InternRows — goes through an
// interval-major sparse index, so that an interval's emission walks
// exactly that interval's non-zero cells instead of scanning every row.
// The index is built once, by the first such read or by Seal, and
// freezes the series: every write after it panics.
//
// The streaming accumulator folds one link's records on one goroutine;
// links are the unit of parallelism, one accumulator each. Handing a
// record to another goroutine costs more than folding it, so splitting
// one link's flows across workers cannot pay — see ARCHITECTURE.md
// ("Why one link accumulates on one goroutine").
package agg

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Series is a flow-by-interval bandwidth matrix: for each flow (a BGP
// prefix) it stores the average bandwidth, in bits per second, during
// each measurement interval.
type Series struct {
	// Interval is the measurement interval length Delta.
	Interval time.Duration
	// Start is the timestamp of the left edge of interval 0.
	Start time.Time
	// Intervals is the number of time slots.
	Intervals int

	flows map[netip.Prefix]int // prefix -> row index
	keys  []netip.Prefix       // row index -> prefix
	rows  [][]float64          // bandwidth in bit/s, len = Intervals
	total []float64            // per-interval total bandwidth in bit/s
	// mu serialises the one build of idx: a finished series may take
	// its first read from several engine workers at once (one link
	// classified under several schemes).
	mu sync.Mutex
	// idx is the interval-major index every per-interval read goes
	// through, and its presence is the freeze: nil while the series is
	// written, built once by the first read or Seal, after which every
	// write panics. Read with a plain atomic load: emission takes no
	// lock.
	idx atomic.Pointer[intervalIndex]
}

// intervalIndex is an interval-major CSR index over the nonzero cells
// of the flow × interval matrix: interval t's active flows live in
// rows[offsets[t]:offsets[t+1]] (row indices, in core.ComparePrefix
// order of their prefixes) with bandwidths in the parallel bw array.
// Emission of interval t is then O(active(t)) sequential reads instead
// of an O(flows) strided scan over every row. sorted is every row in
// core.ComparePrefix order, the order the build fills the index in.
type intervalIndex struct {
	sorted  []int
	offsets []int64
	rows    []int32
	bw      []float64
}

// NewSeries creates an empty series with the given geometry.
func NewSeries(start time.Time, interval time.Duration, intervals int) *Series {
	if interval <= 0 {
		panic(fmt.Sprintf("agg: NewSeries: non-positive interval %v", interval))
	}
	if intervals <= 0 {
		panic(fmt.Sprintf("agg: NewSeries: non-positive interval count %d", intervals))
	}
	return &Series{
		Interval:  interval,
		Start:     start,
		Intervals: intervals,
		flows:     make(map[netip.Prefix]int),
		total:     make([]float64, intervals),
	}
}

// NumFlows reports the number of flows with at least one observation.
func (s *Series) NumFlows() int { return len(s.keys) }

// Flows returns the flow keys in row order. The slice is shared; do not
// modify.
func (s *Series) Flows() []netip.Prefix { return s.keys }

// RowIndex returns the index of flow p's row — its position in Flows()
// — creating the row when p is new, which is a write like any other
// (mutate). It is the one prefix hash a flow costs a writer: a fill
// whose cells come in runs of one flow resolves the row once and then
// writes by index (SetRowBandwidth, AddRowBits).
func (s *Series) RowIndex(p netip.Prefix) int {
	if i, ok := s.flows[p]; ok {
		return i
	}
	s.mutate()
	i := len(s.rows)
	s.flows[p] = i
	s.keys = append(s.keys, p)
	s.rows = append(s.rows, make([]float64, s.Intervals))
	return i
}

// Seal ends the writing: it builds the interval index the first read
// would otherwise build, so that a driver handing one series to several
// readers has every write after this point panic instead of racing
// them. Sealing is idempotent, and sealing a series already read
// changes nothing.
func (s *Series) Seal() { s.intervalIdx() }

// mutate gates every write: once the index is built the series is
// frozen and the write is a programmer error, whatever
// core.DebugInvariants says. Writers never run concurrently with reads
// (the Snapshot contract), so the check needs no lock.
func (s *Series) mutate() {
	if s.idx.Load() != nil {
		panic("agg: Series written after its first read or Seal")
	}
}

// checkInterval refuses a write outside the series window: the caller
// owns interval bounds.
func (s *Series) checkInterval(t int) {
	if t < 0 || t >= s.Intervals {
		panic(fmt.Sprintf("agg: write to interval %d out of [0,%d)", t, s.Intervals))
	}
}

// AddRowBits adds bits to interval t of the flow whose row index is row
// (from RowIndex), updating the total. Out-of-range intervals panic.
func (s *Series) AddRowBits(row, t int, bits float64) {
	s.checkInterval(t)
	s.mutate()
	bw := bits / s.Interval.Seconds()
	s.rows[row][t] += bw
	s.total[t] += bw
}

// SetRowBandwidth sets interval t of the flow whose row index is row
// (from RowIndex) to bw bit/s, updating the total. Out-of-range
// intervals panic.
func (s *Series) SetRowBandwidth(row, t int, bw float64) {
	s.checkInterval(t)
	s.mutate()
	r := s.rows[row]
	s.total[t] += bw - r[t]
	r[t] = bw
}

// AddBits is AddRowBits for one cell of flow p. The interval is checked
// first, so a refused write leaves no row behind.
func (s *Series) AddBits(p netip.Prefix, t int, bits float64) {
	s.checkInterval(t)
	s.AddRowBits(s.RowIndex(p), t, bits)
}

// SetBandwidth is SetRowBandwidth for one cell of flow p.
func (s *Series) SetBandwidth(p netip.Prefix, t int, bw float64) {
	s.checkInterval(t)
	s.SetRowBandwidth(s.RowIndex(p), t, bw)
}

// Bandwidth returns x_p(t) in bit/s; zero for unknown flows.
func (s *Series) Bandwidth(p netip.Prefix, t int) float64 {
	if i, ok := s.flows[p]; ok {
		return s.rows[i][t]
	}
	return 0
}

// Row returns the full bandwidth series of flow p (shared storage), and
// whether the flow exists.
func (s *Series) Row(p netip.Prefix) ([]float64, bool) {
	if i, ok := s.flows[p]; ok {
		return s.rows[i], true
	}
	return nil, false
}

// TotalBandwidth returns the aggregate link load in interval t (bit/s).
func (s *Series) TotalBandwidth(t int) float64 { return s.total[t] }

// intervalIdx returns the CSR interval index, building it on the first
// call. The build is a two-pass count/fill: the fill iterates rows in
// sorted-prefix order, so each interval's slice lists its active rows
// in ascending core.ComparePrefix order — the order a per-interval scan
// of the sorted rows would meet them in, which fixes the float
// summation order of everything downstream.
func (s *Series) intervalIdx() *intervalIndex {
	if ix := s.idx.Load(); ix != nil {
		return ix
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix := s.idx.Load(); ix != nil {
		return ix
	}
	if len(s.keys) > math.MaxInt32 {
		panic(fmt.Sprintf("agg: %d flows overflow the interval index's int32 row positions", len(s.keys)))
	}
	idx := &intervalIndex{sorted: make([]int, len(s.keys)), offsets: make([]int64, s.Intervals+1)}
	for i := range idx.sorted {
		idx.sorted[i] = i
	}
	slices.SortFunc(idx.sorted, func(a, b int) int { return core.ComparePrefix(s.keys[a], s.keys[b]) })
	counts := idx.offsets[1:] // counts[t] accumulates nnz(t), then prefix-sums in place
	for i := range s.rows {
		for t, bw := range s.rows[i] {
			if bw > 0 {
				counts[t]++
			}
		}
	}
	for t := 1; t < s.Intervals; t++ {
		counts[t] += counts[t-1]
	}
	nnz := idx.offsets[s.Intervals]
	idx.rows = make([]int32, nnz)
	idx.bw = make([]float64, nnz)
	cur := make([]int64, s.Intervals)
	copy(cur, idx.offsets[:s.Intervals])
	for _, i := range idx.sorted {
		for t, bw := range s.rows[i] {
			if bw > 0 {
				c := cur[t]
				idx.rows[c] = int32(i)
				idx.bw[c] = bw
				cur[t] = c + 1
			}
		}
	}
	s.idx.Store(idx)
	return idx
}

// Snapshot fills dst (allocating when nil) with interval t's non-zero
// flow bandwidths in sorted prefix order — the columnar per-interval
// view the online classifier consumes, emitted pre-sorted so the
// pipeline never re-sorts. The returned snapshot is reusable: pass it
// back in for the next interval to avoid allocation. Like every
// per-interval read it freezes the series, and it is safe to call from
// multiple goroutines with distinct dst snapshots — the engine relies
// on this when one link's series is classified under several schemes.
func (s *Series) Snapshot(t int, dst *core.FlowSnapshot) *core.FlowSnapshot {
	return s.emit(t, dst, nil)
}

// emit is the one emission: interval t's segment of the index, which
// lists the interval's rows in sorted-prefix order and holds only
// positive cells — what FillRows asks its producer to vouch for —
// gathered into dst with the rows' IDs when rowIDs is non-nil.
func (s *Series) emit(t int, dst *core.FlowSnapshot, rowIDs []uint32) *core.FlowSnapshot {
	if dst == nil {
		dst = core.NewFlowSnapshot(len(s.keys))
	}
	ix := s.intervalIdx()
	lo, hi := ix.offsets[t], ix.offsets[t+1]
	dst.FillRows(ix.rows[lo:hi], ix.bw[lo:hi], s.keys, rowIDs)
	return dst
}

// IntervalBandwidths returns interval t's non-zero bandwidth column as
// a zero-copy view into the CSR index — the same values, in the same
// sorted-prefix order, that Snapshot(t) would append, without emitting
// keys. The view is read-only and capacity-capped, and valid for the
// life of the series, which the read freezes. This is the batch detector prepass's
// input: threshold detection consumes only the bandwidth column, so the
// engine can precompute θ(t) columns without paying for full snapshots.
func (s *Series) IntervalBandwidths(t int) []float64 {
	ix := s.intervalIdx()
	lo, hi := ix.offsets[t], ix.offsets[t+1]
	return ix.bw[lo:hi:hi]
}

// InternRows interns every flow row into tbl and returns the row→ID
// column (reusing dst's storage), aligned with Flows(). Interning once
// per link — instead of once per flow per interval — is what lets
// SnapshotIDs emit dense-ID snapshots with zero hashing on the
// per-interval path. The table is pinned: the returned column must
// keep resolving for the whole run, so classifier evictions must not
// recycle IDs out from under it. The table is single-goroutine:
// callers sharing one series across several pipelines build one row→ID
// column per pipeline against that pipeline's own table.
func (s *Series) InternRows(tbl *core.FlowTable, dst []uint32) []uint32 {
	tbl.Pin()
	dst = slices.Grow(dst[:0], len(s.keys))[:len(s.keys)]
	// Interned in sorted-prefix order, so that on a fresh table IDs rise
	// with the snapshot's rows and a consumer's ID-indexed columns are
	// walked front to back, not at random.
	for _, i := range s.intervalIdx().sorted {
		dst[i] = tbl.Intern(s.keys[i])
	}
	return dst
}

// SnapshotIDs is Snapshot with a dense-ID column attached from a
// row→ID mapping previously built by InternRows against tbl: identical
// keys, bandwidths and float summation order, plus ids the classifier
// can index its flow columns by directly.
func (s *Series) SnapshotIDs(t int, dst *core.FlowSnapshot, tbl *core.FlowTable, rowIDs []uint32) *core.FlowSnapshot {
	if len(rowIDs) != len(s.keys) {
		panic(fmt.Sprintf("agg: SnapshotIDs: %d row IDs for %d flows (stale InternRows?)", len(rowIDs), len(s.keys)))
	}
	dst = s.emit(t, dst, rowIDs)
	dst.SetIDTable(tbl)
	return dst
}

// IntervalTime returns the left edge of interval t.
func (s *Series) IntervalTime(t int) time.Time {
	return s.Start.Add(time.Duration(t) * s.Interval)
}

// ActiveFlows reports the number of flows with positive bandwidth in
// interval t: the length of the interval's segment of the index.
func (s *Series) ActiveFlows(t int) int {
	if t < 0 || t >= s.Intervals {
		panic(fmt.Sprintf("agg: ActiveFlows: interval %d out of [0,%d)", t, s.Intervals))
	}
	ix := s.intervalIdx()
	return int(ix.offsets[t+1] - ix.offsets[t])
}

// Rebin aggregates the series to a coarser interval that must be an
// integer multiple of the current one; bandwidths are time-averaged.
// Used for the paper's interval-sensitivity check (1, 5, 10 minutes).
//
// When Intervals is not a multiple of the coarsening factor k, the
// trailing Intervals mod k source intervals do not fill a whole coarse
// slot and are dropped from the result; the second return value reports
// how many were truncated (0 when the lengths divide evenly, and for
// the identity rebin).
func (s *Series) Rebin(interval time.Duration) (*Series, int, error) {
	if interval == s.Interval {
		return s, 0, nil
	}
	if interval <= 0 || interval%s.Interval != 0 {
		return nil, 0, fmt.Errorf("agg: Rebin: %v is not a positive multiple of %v", interval, s.Interval)
	}
	k := int(interval / s.Interval)
	if s.Intervals/k == 0 {
		return nil, 0, fmt.Errorf("agg: Rebin: series too short (%d slots) for factor %d", s.Intervals, k)
	}
	out := NewSeries(s.Start, interval, s.Intervals/k)
	for i, p := range s.keys {
		row := s.rows[i]
		dst := -1 // p's row in out, created by its first positive cell
		for t := 0; t < out.Intervals; t++ {
			var sum float64
			for j := 0; j < k; j++ {
				sum += row[t*k+j]
			}
			if sum > 0 {
				if dst < 0 {
					dst = out.RowIndex(p)
				}
				out.SetRowBandwidth(dst, t, sum/float64(k))
			}
		}
	}
	return out, s.Intervals % k, nil
}
