package core

import (
	"fmt"
	"net/netip"
	"slices"
)

// Class is a flow's classification state: the underlying two-state
// process the scheme induces on every flow.
type Class uint8

// Class values.
const (
	Mouse Class = iota
	Elephant
)

// String returns "mouse" or "elephant".
func (c Class) String() string {
	if c == Elephant {
		return "elephant"
	}
	return "mouse"
}

// Verdict is a classifier's elephant set for one interval, expressed
// against the classified snapshot: Indices are positions in the
// snapshot's columns (ascending), Offline lists flows that carried no
// traffic this interval but are still classified as elephants from
// history (latent-heat carryover), sorted by ComparePrefix.
//
// A Verdict may alias classifier-internal buffers; it is only valid
// until the next Classify call. Pipeline.Step copies what it keeps.
type Verdict struct {
	Indices []int
	Offline []netip.Prefix
}

// Classifier decides, once per interval, which flows are elephants given
// the interval's columnar snapshot and the smoothed threshold.
type Classifier interface {
	// Classify returns the elephant verdict for the interval. snap holds
	// each active flow's average bandwidth x_j(t) in sorted order;
	// thresholdHat is θ̂(t). Implementations may maintain per-flow
	// history across calls; calls must be made in interval order.
	Classify(snap *FlowSnapshot, thresholdHat float64) Verdict
	// Name identifies the scheme in reports.
	Name() string
}

// SingleFeatureClassifier implements the paper's single-feature scheme:
// flow j is an elephant at interval t iff x_j(t) > θ̂(t).
type SingleFeatureClassifier struct{}

// Name implements Classifier.
func (SingleFeatureClassifier) Name() string { return "single-feature" }

// Classify implements Classifier.
func (c SingleFeatureClassifier) Classify(snap *FlowSnapshot, thresholdHat float64) Verdict {
	return Verdict{Indices: c.appendElephants(nil, snap, thresholdHat)}
}

// appendElephants appends the verdict's indices to a buffer the caller
// owns: the classifier stays a stateless value, and a pipeline stepping
// it lends its own buffer and allocates nothing.
func (SingleFeatureClassifier) appendElephants(dst []int, snap *FlowSnapshot, thresholdHat float64) []int {
	for i, bw := range snap.Bandwidths() {
		if bw > thresholdHat {
			dst = append(dst, i)
		}
	}
	return dst
}

// LatentHeatClassifier implements the two-feature scheme. For every flow
// it maintains the "latent heat"
//
//	LH_j(t) = Σ_{i=t-W+1..t} ( x_j(i) − θ̂(i) )
//
// over the past W timeslots (the paper uses W=12, one hour of 5-minute
// slots) and classifies flow j as an elephant iff LH_j(t) > 0. Slots
// before a flow's first appearance, and slots where it was idle, count
// as x_j(i) = 0, so a mouse must overshoot the accumulated threshold
// deficit before it is promoted — this is what filters one-interval
// bursts.
//
// The sum splits into Σ x_j(i), kept per flow by a LatentWindow, and
// Σ θ̂(i), kept here; the classifier holds the ring of thresholds and
// makes the two comparisons — over the snapshot's flows, then over the
// window's idle ones. Who calls the window's Observe: a classifier on
// its own (Run, RunStreaming, LivePipeline, standalone use) creates its
// window on the first Classify and observes each snapshot itself; one
// that ShareLatentWindows attached to a shared window (a RunMatrix
// group's cells) leaves that to the window's holder and only reads.
// The pipeline binds its flow table via BindTable; driven standalone,
// the classifier owns a private table and interns snapshot keys itself.
//
// Equivalence note: the window sum is maintained incrementally
// (winSum += bw − old, old being the value that leaves the slot — and
// bw − 0 is bw exactly), which associates float additions differently
// than re-summing the ring each interval, so for generic
// (non-representable) bandwidths the sum can differ from a re-summing
// implementation in the last ulps — the classification DECISION is
// equivalent unless a flow's latent heat sits within ~1 ulp of zero,
// and the sum is exact whenever bandwidths and thresholds are
// integer-representable (the dual-implementation test asserts
// bit-equality there). A per-flow nonzero-slot counter snaps the sum
// back to exactly 0 when the window fully drains, so no residue can
// misclassify an idle flow or block its eviction.
type LatentHeatClassifier struct {
	// Window is W, the number of timeslots summed. Must be >= 1.
	Window int
	// EvictAfter drops a flow's state after this many consecutive idle
	// intervals with non-positive latent heat, bounding memory on
	// long runs. Zero selects 4*Window.
	EvictAfter int

	t int // intervals processed

	// thrHist is the ring of the last Window thresholds; thresholdSum
	// re-sums it in chronological order (W terms once per interval, not
	// per flow), which keeps the float arithmetic identical to the
	// historical slice-of-thresholds implementation.
	thrHist []float64

	table    *FlowTable
	ownTable bool // created lazily here, so Classify advances it too

	// win holds the per-flow bandwidth sums; attached marks a shared
	// window, which its holder observes, not Classify.
	win      *LatentWindow
	attached bool

	// scratch buffers reused across Classify calls; the returned
	// Verdict aliases them.
	idx     []int
	offline []netip.Prefix
}

// NewLatentHeatClassifier returns a classifier with the given window.
func NewLatentHeatClassifier(window int) (*LatentHeatClassifier, error) {
	if window < 1 {
		return nil, fmt.Errorf("core: latent-heat window %d < 1", window)
	}
	return &LatentHeatClassifier{
		Window:  window,
		thrHist: make([]float64, window),
	}, nil
}

// Name implements Classifier.
func (c *LatentHeatClassifier) Name() string { return "latent-heat" }

// BindTable attaches the pipeline's flow table. Must be called before
// the first Classify; the table's owner drives its quarantine clock.
// Snapshot ID columns handed to Classify must come from this table.
func (c *LatentHeatClassifier) BindTable(tb *FlowTable) {
	c.table = tb
	c.ownTable = false
}

// evictAfter resolves EvictAfter's zero default.
func (c *LatentHeatClassifier) evictAfter() int {
	if c.EvictAfter == 0 {
		return 4 * c.Window
	}
	return c.EvictAfter
}

// shareable reports whether ShareLatentWindows may attach the
// classifier to a shared window; see there for the conditions.
func (c *LatentHeatClassifier) shareable() bool {
	return c.win == nil && c.t == 0 && c.table != nil && c.table.pinned && c.evictAfter() >= c.Window
}

// thresholdSum returns Σ θ̂ over the last min(t, Window) slots including
// the current one, summed oldest-first.
func (c *LatentHeatClassifier) thresholdSum() float64 {
	var s float64
	if c.t < c.Window {
		for i := 0; i < c.t; i++ {
			s += c.thrHist[i]
		}
		return s
	}
	start := c.t % c.Window // oldest slot in the ring
	for k := 0; k < c.Window; k++ {
		i := start + k
		if i >= c.Window {
			i -= c.Window
		}
		s += c.thrHist[i]
	}
	return s
}

// LatentHeat returns the current latent heat of flow p, and whether the
// flow is known. Valid after at least one Classify call.
func (c *LatentHeatClassifier) LatentHeat(p netip.Prefix) (float64, bool) {
	if c.win == nil { // nothing classified yet
		return 0, false
	}
	id, ok := c.table.Lookup(p)
	if !ok || int(id) >= len(c.win.lastSeen) || c.win.lastSeen[id] == 0 {
		return 0, false
	}
	return c.win.winSum[id] - c.thresholdSum(), true
}

// Classify implements Classifier.
func (c *LatentHeatClassifier) Classify(snap *FlowSnapshot, thresholdHat float64) Verdict {
	if c.table == nil {
		c.table = NewFlowTable()
		c.ownTable = true
	}
	// Standalone use: intern the snapshot's keys against the private
	// table (FillIDs also rewrites columns stamped by a foreign table).
	// Pipeline-driven snapshots already carry this table's IDs.
	if !snap.HasIDs() || snap.IDTable() != c.table {
		c.table.FillIDs(snap)
	}
	c.thrHist[c.t%c.Window] = thresholdHat // θ̂(t) enters the window
	c.t++
	thrSum := c.thresholdSum()
	if !c.attached {
		if c.win == nil {
			c.win = newLatentWindow(c.Window, c.evictAfter(), c.table)
		}
		c.win.observe(snap, thrSum)
	} else if c.win.t != c.t {
		panic(fmt.Sprintf("core: latent-heat classifier at interval %d, its shared window at %d (Observe once per interval, before Classify)", c.t, c.win.t))
	}

	// Active flows, in snapshot (hence sorted) order; then the idle
	// flows still holding state, elephants on accumulated heat.
	winSum := c.win.winSum
	c.idx = c.idx[:0]
	for i, id := range snap.IDs() {
		if winSum[id]-thrSum > 0 {
			c.idx = append(c.idx, i)
		}
	}
	c.offline = c.offline[:0]
	for _, id := range c.win.idle {
		if winSum[id]-thrSum > 0 {
			c.offline = append(c.offline, c.table.PrefixOf(id))
		}
	}
	slices.SortFunc(c.offline, ComparePrefix)
	if c.ownTable {
		c.table.Advance()
	}
	return Verdict{Indices: c.idx, Offline: c.offline}
}

// TrackedFlows reports how many flows currently hold history state.
func (c *LatentHeatClassifier) TrackedFlows() int {
	if c.win == nil {
		return 0
	}
	return len(c.win.liveIDs)
}
