package core

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"repro/internal/stats"
)

// ComparePrefix orders prefixes by address, then by length. It is the
// canonical flow order of the whole system: FlowSnapshot columns,
// ElephantSet members and Verdict.Offline are all sorted by it.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}

// FlowSnapshot is the columnar view of one measurement interval: a
// prefix column sorted by ComparePrefix and a parallel column of average
// bandwidths x_j(t) in bit/s, all strictly positive. It replaces the
// map[netip.Prefix]float64 snapshot of earlier revisions in every
// interval hot path.
//
// Ownership contract: a snapshot is owned by its producer and may be
// reset and refilled for the next interval (agg.Series.Snapshot and the
// engine workers do exactly that). Consumers must not retain the
// snapshot or its column slices across intervals; anything that outlives
// the interval (e.g. Result.Elephants) is copied out by Pipeline.Step.
// A snapshot may additionally carry a dense-ID column (AppendID, or
// FlowTable.FillIDs) aligned with the prefix column: ids[i] is the
// FlowTable ID of keys[i]. The column is all-or-nothing — HasIDs
// reports whether every row has one — and IDs are only meaningful
// against the table that stamped them (IDTable).
type FlowSnapshot struct {
	keys    []netip.Prefix
	bw      []float64
	ids     []uint32
	idTable *FlowTable // table the ID column was interned against
	total   float64
	sorted  bool
	// sortedBW caches an ascending-sorted copy of bw, built lazily by
	// SortedBandwidths and invalidated by any mutation; sortedBWOK
	// tracks its validity. sortTmp is the radix sort's ping-pong
	// scratch, reused across fills.
	sortedBW   []float64
	sortTmp    []float64
	sortedBWOK bool
}

// NewFlowSnapshot returns an empty snapshot with room for capacity
// flows.
func NewFlowSnapshot(capacity int) *FlowSnapshot {
	return &FlowSnapshot{
		keys:   make([]netip.Prefix, 0, capacity),
		bw:     make([]float64, 0, capacity),
		sorted: true,
	}
}

// Reset empties the snapshot, keeping the backing arrays for reuse.
func (s *FlowSnapshot) Reset() {
	s.keys = s.keys[:0]
	s.bw = s.bw[:0]
	s.ids = s.ids[:0]
	s.idTable = nil
	s.total = 0
	s.sorted = true
	s.sortedBWOK = false
}

// CopyFrom replaces the snapshot's contents with a copy of src's
// prefix, bandwidth and ID columns, reusing the backing arrays. It is
// the stage-boundary handoff of a pipelined consumer: the producer's
// snapshot (owned and about to be reused for the next interval) is
// copied into a transfer buffer the consumer owns. The ID column
// crosses with the producer's table stamp: the IDs still mean nothing
// against any other table, and the producer's table is still the
// producer's alone once the stages run concurrently — the consumer may
// compare the stamp, never dereference it — but FlowTable.FillIDs can
// translate a foreign-stamped column index by index instead of hashing
// every prefix again. The running total is copied bit-for-bit, not
// recomputed, preserving the producer's exact fold.
func (s *FlowSnapshot) CopyFrom(src *FlowSnapshot) {
	s.keys = append(s.keys[:0], src.keys...)
	s.bw = append(s.bw[:0], src.bw...)
	s.ids = append(s.ids[:0], src.ids...)
	s.idTable = src.idTable
	s.total = src.total
	s.sorted = src.sorted
	s.sortedBWOK = false
}

// Append adds one flow. Bandwidths that are not positive, NaN among
// them, are dropped (an idle flow is simply absent from the interval).
// Appending in ComparePrefix order keeps the snapshot sorted for free;
// an out-of-order or repeated prefix marks it unsorted, and
// Pipeline.Step refuses an unsorted snapshot.
func (s *FlowSnapshot) Append(p netip.Prefix, bw float64) {
	if !(bw > 0) {
		return
	}
	if n := len(s.keys); n > 0 && ComparePrefix(s.keys[n-1], p) >= 0 {
		s.sorted = false
	}
	s.keys = append(s.keys, p)
	s.bw = append(s.bw, bw)
	s.total += bw
	s.sortedBWOK = false
}

// AppendID adds one flow together with its dense FlowTable ID —
// producers that hold a table (the stream accumulator) use it so the
// classifier can index its per-flow columns without a single hash
// lookup. The same bandwidth and ordering rules as Append apply.
func (s *FlowSnapshot) AppendID(p netip.Prefix, id uint32, bw float64) {
	if !(bw > 0) {
		return
	}
	s.Append(p, bw)
	s.ids = append(s.ids, id)
}

// FillRows replaces the snapshot's contents with the flows rows picks
// out of a producer's row-indexed key column, paired one to one with
// the bandwidths bw — and, when rowIDs is non-nil, out of its row→ID
// column too. It is Reset followed by AppendID (or Append) per row for
// a producer that vouches for what the appends would have checked:
// every bandwidth is positive and the picked keys are in strictly
// ascending ComparePrefix order. The columns are copied and gathered in
// bulk, the total is folded in column order (the appends' fold, bit for
// bit), the sorted flag is asserted rather than re-proved per flow, and
// the ID column is left unstamped. A broken vouch is a producer bug:
// DebugInvariants re-checks both conditions and panics.
func (s *FlowSnapshot) FillRows(rows []int32, bw []float64, keys []netip.Prefix, rowIDs []uint32) {
	s.Reset()
	n := len(rows)
	bw = bw[:n]
	s.bw = append(s.bw, bw...)
	s.keys = slices.Grow(s.keys, n)[:n]
	for k, r := range rows {
		s.keys[k] = keys[r]
	}
	if rowIDs != nil {
		s.ids = slices.Grow(s.ids, n)[:n]
		for k, r := range rows {
			s.ids[k] = rowIDs[r]
		}
	}
	for _, x := range bw {
		s.total += x
	}
	if DebugInvariants {
		if !s.verifySorted() {
			panic("core: FillRows: keys not in strictly ascending ComparePrefix order")
		}
		for _, x := range bw {
			if !(x > 0) {
				panic(fmt.Sprintf("core: FillRows: non-positive bandwidth %v", x))
			}
		}
	}
}

// HasIDs reports whether every row carries a dense ID: true when the
// snapshot was filled exclusively through AppendID (or FillIDs), false
// after any plain Append.
func (s *FlowSnapshot) HasIDs() bool { return len(s.ids) == len(s.keys) }

// SetIDTable stamps the table the ID column was interned against.
// Producers filling via AppendID set it (FillIDs does it itself);
// consumers use IDTable to reject columns that came from a different
// table — FillIDs translates them — instead of indexing
// foreign IDs.
func (s *FlowSnapshot) SetIDTable(tb *FlowTable) { s.idTable = tb }

// IDTable returns the table the ID column belongs to (nil when the
// producer did not stamp one).
func (s *FlowSnapshot) IDTable() *FlowTable { return s.idTable }

// ID returns the i-th flow's dense ID; meaningful only when HasIDs.
func (s *FlowSnapshot) ID(i int) uint32 { return s.ids[i] }

// IDs exposes the ID column (nil or short of Len when HasIDs is
// false). Shared storage; do not modify.
func (s *FlowSnapshot) IDs() []uint32 { return s.ids }

// Len reports the number of active flows in the snapshot.
func (s *FlowSnapshot) Len() int { return len(s.keys) }

// Key returns the i-th flow prefix.
func (s *FlowSnapshot) Key(i int) netip.Prefix { return s.keys[i] }

// Bandwidth returns the i-th flow's bandwidth in bit/s.
func (s *FlowSnapshot) Bandwidth(i int) float64 { return s.bw[i] }

// Keys exposes the prefix column. Shared storage; do not modify.
func (s *FlowSnapshot) Keys() []netip.Prefix { return s.keys }

// Bandwidths exposes the bandwidth column. Shared storage; do not
// modify.
func (s *FlowSnapshot) Bandwidths() []float64 { return s.bw }

// SortedBandwidths returns the bandwidth column sorted ascending. The
// copy is computed lazily once per fill and cached until the snapshot
// is next mutated, so every consumer of one fill shares a single sort.
// Its consumers are inline detection (the live, stream and example
// pipelines) and TopK classifiers, such as the RunMatrix cells stepping
// one emitted snapshot; batch detection reads θ(t) from the prepass's
// column and sorts nothing. Read-only shared storage; do not modify.
func (s *FlowSnapshot) SortedBandwidths() []float64 {
	if !s.sortedBWOK {
		// Every way into a snapshot keeps its bandwidths positive, where
		// the bit-pattern radix sort produces the comparison sort's
		// ascending order several times faster.
		s.sortedBW = append(s.sortedBW[:0], s.bw...)
		if cap(s.sortTmp) < len(s.sortedBW) {
			s.sortTmp = make([]float64, len(s.sortedBW))
		}
		stats.SortPositive(s.sortedBW, s.sortTmp[:len(s.sortedBW)])
		s.sortedBWOK = true
	}
	return s.sortedBW
}

// TotalLoad returns the aggregate link load of the interval in bit/s.
func (s *FlowSnapshot) TotalLoad() float64 { return s.total }

// IsSorted reports whether every Append since the last Reset was in
// strictly ascending ComparePrefix order. It is O(1): the flag is
// maintained incrementally.
func (s *FlowSnapshot) IsSorted() bool { return s.sorted }

// verifySorted is the O(n) invariant check behind DebugInvariants,
// catching callers that mutated the columns behind the flag's back.
func (s *FlowSnapshot) verifySorted() bool {
	for i := 1; i < len(s.keys); i++ {
		if ComparePrefix(s.keys[i-1], s.keys[i]) >= 0 {
			return false
		}
	}
	return true
}

// Lookup binary-searches the prefix column and returns the flow's index.
// The snapshot must be sorted.
func (s *FlowSnapshot) Lookup(p netip.Prefix) (int, bool) {
	i := sort.Search(len(s.keys), func(i int) bool {
		return ComparePrefix(s.keys[i], p) >= 0
	})
	if i < len(s.keys) && s.keys[i] == p {
		return i, true
	}
	return i, false
}

// SnapshotFromMap fills dst (allocating when nil) from a flow->bandwidth
// map, appending the map's flows in ComparePrefix order so the snapshot
// and its total are the same whatever order the map iterates in — the
// bridge for callers that assemble intervals as maps (tests, ad-hoc
// tooling). Hot paths build snapshots directly in sorted order.
func SnapshotFromMap(m map[netip.Prefix]float64, dst *FlowSnapshot) *FlowSnapshot {
	if dst == nil {
		dst = NewFlowSnapshot(len(m))
	}
	dst.Reset()
	keys := make([]netip.Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	slices.SortFunc(keys, ComparePrefix)
	for _, p := range keys {
		dst.Append(p, m[p])
	}
	return dst
}

// ElephantSet is an interval's elephant membership: an immutable set of
// flow prefixes sorted by ComparePrefix. Unlike the snapshot it owns its
// storage, so results remain valid after the producing snapshot is
// reused for the next interval.
type ElephantSet struct {
	flows []netip.Prefix
}

// NewElephantSet builds a set from arbitrary prefixes (sorted and
// deduplicated). Mostly useful in tests; Pipeline builds sets from
// classifier verdicts directly.
func NewElephantSet(flows ...netip.Prefix) ElephantSet {
	if len(flows) == 0 {
		return ElephantSet{}
	}
	fs := make([]netip.Prefix, len(flows))
	copy(fs, flows)
	slices.SortFunc(fs, ComparePrefix)
	out := fs[:1]
	for _, p := range fs[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return ElephantSet{flows: out}
}

// Len reports the set size.
func (e ElephantSet) Len() int { return len(e.flows) }

// Contains reports membership by binary search.
func (e ElephantSet) Contains(p netip.Prefix) bool {
	i := sort.Search(len(e.flows), func(i int) bool {
		return ComparePrefix(e.flows[i], p) >= 0
	})
	return i < len(e.flows) && e.flows[i] == p
}

// Flows returns the members in ComparePrefix order. Shared storage; do
// not modify.
func (e ElephantSet) Flows() []netip.Prefix { return e.flows }

// Equal reports whether two sets have identical membership.
func (e ElephantSet) Equal(o ElephantSet) bool {
	if len(e.flows) != len(o.flows) {
		return false
	}
	for i := range e.flows {
		if e.flows[i] != o.flows[i] {
			return false
		}
	}
	return true
}

// Jaccard returns the Jaccard similarity of two sets (1 for two empty
// sets), the membership-stability measure used throughout the
// evaluation.
func (e ElephantSet) Jaccard(o ElephantSet) float64 {
	inter := 0
	i, j := 0, 0
	for i < len(e.flows) && j < len(o.flows) {
		switch c := ComparePrefix(e.flows[i], o.flows[j]); {
		case c == 0:
			inter++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	union := len(e.flows) + len(o.flows) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// prefixArena amortizes ElephantSet storage across intervals: results
// own their flow slices (they outlive the producing snapshot), so every
// classified interval historically paid one allocation for its set.
// The arena instead carves owned, never-reused regions out of
// append-only chunks — full-slice expressions cap each region so no
// later grab can touch it — cutting the steady-state classify path
// below one allocation per interval while preserving ElephantSet's
// immutability contract.
type prefixArena struct {
	buf []netip.Prefix
}

// arenaChunk is the minimum chunk size in prefixes (~64 KiB a chunk).
const arenaChunk = 2048

// grab returns an empty slice with capacity exactly n: appends up to n
// never reallocate and the region never aliases another grab. A fresh
// chunk is sized at several times the triggering request, so even
// elephant sets comparable to the chunk minimum amortize to well under
// one allocation per interval.
func (a *prefixArena) grab(n int) []netip.Prefix {
	if cap(a.buf)-len(a.buf) < n {
		size := arenaChunk
		if n > size/8 {
			size = n * 8
		}
		a.buf = make([]netip.Prefix, 0, size)
	}
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	return a.buf[lo : lo : lo+n]
}

// mergeElephantsArena combines a verdict's snapshot indices (ascending)
// and off-snapshot flows (sorted) into an owning ElephantSet, drawing its
// storage from an arena when one is supplied (the pipeline's
// steady-state path) and allocating it otherwise.
func mergeElephantsArena(snap *FlowSnapshot, v Verdict, a *prefixArena) ElephantSet {
	n := len(v.Indices) + len(v.Offline)
	if n == 0 {
		return ElephantSet{}
	}
	var flows []netip.Prefix
	if a != nil {
		flows = a.grab(n)
	} else {
		flows = make([]netip.Prefix, 0, n)
	}
	i, j := 0, 0
	for i < len(v.Indices) && j < len(v.Offline) {
		p := snap.Key(v.Indices[i])
		if ComparePrefix(p, v.Offline[j]) < 0 {
			flows = append(flows, p)
			i++
		} else {
			flows = append(flows, v.Offline[j])
			j++
		}
	}
	for ; i < len(v.Indices); i++ {
		flows = append(flows, snap.Key(v.Indices[i]))
	}
	flows = append(flows, v.Offline[j:]...)
	return ElephantSet{flows: flows}
}
