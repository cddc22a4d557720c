package core

import (
	"fmt"
	"net/netip"
	"slices"
)

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
type SingleFeatureClassifier struct {
	// idx is reused across Classify calls; the returned Verdict
	// aliases it.
	idx []int
}

// Name implements Classifier.
func (*SingleFeatureClassifier) Name() string { return "single-feature" }

// Classify implements Classifier.
func (c *SingleFeatureClassifier) Classify(snap *FlowSnapshot, thresholdHat float64) Verdict {
	c.idx = c.idx[:0]
	for i, bw := range snap.Bandwidths() {
		if bw > thresholdHat {
			c.idx = append(c.idx, i)
		}
	}
	return Verdict{Indices: c.idx}
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
// bursts. A flow idle for 4W intervals is forgotten: its window drained
// long before, so dropping its state changes no latent heat and only
// bounds memory on long runs.
//
// The sum splits into Σ x_j(i), kept per flow by a LatentWindow, and
// Σ θ̂(i), kept here; the classifier holds the ring of thresholds and
// makes the two comparisons — over the snapshot's flows, then over the
// window's idle ones. Who calls the window's Observe: a classifier on
// its own creates its window on the first Classify and observes each
// snapshot itself; one that ShareLatentWindows attached to a shared
// window (a RunMatrix group's cells) leaves that to the window's holder
// and only reads. Either way the classifier runs in a Pipeline, which
// binds its flow table and stamps every snapshot's ID column from it.
//
// Equivalence note: both sums are added oldest first, Σ x by the window
// and Σ θ̂ here, so LH_j(t) is a function of the last W intervals alone.
type LatentHeatClassifier struct {
	// Window is W, the number of timeslots summed. Must be >= 1.
	Window int

	t int // intervals processed

	// thrHist is the ring of the last Window thresholds; thresholdSum
	// re-sums it in chronological order (W terms once per interval, not
	// per flow), which keeps the float arithmetic identical to the
	// historical slice-of-thresholds implementation.
	thrHist []float64

	// table is the pipeline's flow table, bound by NewPipeline.
	table *FlowTable

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

// shareable reports whether ShareLatentWindows may attach the
// classifier to a shared window; see there for the conditions.
func (c *LatentHeatClassifier) shareable() bool {
	return c.win == nil && c.t == 0 && c.table != nil && c.table.pinned
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

// Classify implements Classifier. snap's ID column must be stamped by
// the table NewPipeline bound, as Pipeline.Step leaves it; anything
// else is a wiring bug and panics.
func (c *LatentHeatClassifier) Classify(snap *FlowSnapshot, thresholdHat float64) Verdict {
	if c.table == nil {
		panic("core: latent-heat classifier without a flow table (run it in a Pipeline)")
	}
	if !snap.HasIDs() || snap.IDTable() != c.table {
		panic("core: latent-heat classifier: snapshot ID column not stamped by the classifier's flow table")
	}
	c.thrHist[c.t%c.Window] = thresholdHat // θ̂(t) enters the window
	c.t++
	thrSum := c.thresholdSum()
	if !c.attached {
		if c.win == nil {
			c.win = newLatentWindow(c.Window, c.table)
		}
		c.win.Observe(snap)
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
	return Verdict{Indices: c.idx, Offline: c.offline}
}

// TrackedFlows reports how many flows currently hold history state.
func (c *LatentHeatClassifier) TrackedFlows() int {
	if c.win == nil {
		return 0
	}
	return len(c.win.liveIDs)
}
