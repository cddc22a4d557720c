package core

import "fmt"

// LatentWindow is the threshold-independent half of latent heat: for
// every flow it holds the last W bandwidths x_j(i) and their sum
// S_j(t) = Σ_W x_j(i). The paper's latent heat separates,
//
//	LH_j(t) = Σ_W x_j(i) − Σ_W θ̂(i) = S_j(t) − Θ(t),
//
// into this per-flow sum that no threshold touches and a per-classifier
// threshold sum that no flow touches, so every LatentHeatClassifier
// reading the same snapshots with the same W can read one window: the
// engine's series loop observes an interval once and the cells of a
// spec group each make only their own comparisons against it.
//
// State lives in flat columns indexed by the dense IDs of a FlowTable.
// hist is the flattened ring of per-flow windows in slot-major layout:
// flow id's slot s lives at hist[s*stride+id], so one interval reads
// and writes a single slot plane. winSum is the sum of a flow's W
// slots, added oldest first as LatentHeatClassifier adds θ̂, so it is a
// function of the window alone and exactly 0 once the window drains.
// lastSeen is the 1-based interval of the flow's latest bandwidth, 0
// for a flow holding no state; the length of a flow's idle run is the
// distance from it.
type LatentWindow struct {
	window int
	table  *FlowTable
	t      int // intervals observed

	hist     []float64
	stride   int
	winSum   []float64
	lastSeen []int32
	liveIDs  []uint32 // flows holding state, in admission order
	idle     []uint32 // of those, the ones absent from the latest snapshot
}

// evictWindows is the eviction rule: a flow idle for evictWindows·W
// intervals has its state dropped. Its window drained W intervals into
// the idle run, so its sum is exactly 0 by then and dropping it changes
// no latent heat, whatever the thresholds; it only bounds memory.
const evictWindows = 4

func newLatentWindow(window int, table *FlowTable) *LatentWindow {
	return &LatentWindow{window: window, table: table}
}

// Observe folds one interval's snapshot into the window: the one ring
// update and the one eviction rule. Active flows get their bandwidth
// written into the interval's slot; flows holding state but absent from
// the snapshot get the slot zeroed, and one idle for evictWindows·W
// intervals is evicted. Then every flow's sum is taken afresh from its
// slots. An owning classifier calls it from Classify; whoever obtained
// a shared window from ShareLatentWindows calls it exactly once per
// interval, before the attached classifiers' Classify calls. The
// snapshot's ID column must come from a table that numbers flows as
// the classifiers' tables do.
func (w *LatentWindow) Observe(snap *FlowSnapshot) {
	if !snap.HasIDs() {
		panic("core: LatentWindow: snapshot without an ID column")
	}
	slot := w.t % w.window
	w.t++
	seen := int32(w.t)
	w.grow(w.table.Cap())
	n := len(w.winSum)
	plane := w.hist[slot*w.stride : slot*w.stride+n]
	lastSeen := w.lastSeen[:n]
	ids := snap.IDs()
	bws := snap.Bandwidths()[:len(ids)]
	if DebugInvariants {
		for i, id := range ids {
			if int(id) >= n || w.table.PrefixOf(id) != snap.Key(i) {
				panic(fmt.Sprintf("core: LatentWindow: snapshot ID %d does not resolve to %v in the window's table", id, snap.Key(i)))
			}
		}
	}
	for i, id := range ids {
		plane[id] = bws[i]
		if lastSeen[id] == 0 {
			w.liveIDs = append(w.liveIDs, id)
		}
		lastSeen[id] = seen
	}
	// Idle flows: zero the interval's slot, then keep or evict. The
	// sweep covers exactly the flows holding state, compacting out
	// evictions in place.
	idle := w.idle[:0]
	evictAt := int32(evictWindows * w.window)
	k := 0
	for _, id := range w.liveIDs {
		if lastSeen[id] == seen {
			w.liveIDs[k] = id
			k++
			continue
		}
		plane[id] = 0
		if seen-lastSeen[id] >= evictAt {
			w.evict(id)
			continue
		}
		w.liveIDs[k] = id
		k++
		idle = append(idle, id)
	}
	w.liveIDs = w.liveIDs[:k]
	w.idle = idle
	// Re-sum densely, plane by plane, from the oldest: the slot the
	// next Observe writes.
	oldest := w.t % w.window
	winSum := w.winSum[:n]
	copy(winSum, w.hist[oldest*w.stride:])
	for j := 1; j < w.window; j++ {
		s := (oldest + j) % w.window
		for id, bw := range w.hist[s*w.stride:][:n] {
			winSum[id] += bw
		}
	}
}

// grow extends the flow columns to cover n IDs. The ring's slot-major
// planes grow by capacity doubling: each plane of the old stride is
// copied into its position under the new stride, preserving every
// flow's window verbatim.
func (w *LatentWindow) grow(n int) {
	if n <= len(w.winSum) {
		return
	}
	if n > w.stride {
		stride := max(2*w.stride, n, 256)
		hist := make([]float64, w.window*stride)
		for s := 0; s < w.window; s++ {
			copy(hist[s*stride:], w.hist[s*w.stride:(s+1)*w.stride])
		}
		w.hist, w.stride = hist, stride
	}
	w.winSum = append(w.winSum, make([]float64, n-len(w.winSum))...)
	w.lastSeen = append(w.lastSeen, make([]int32, n-len(w.lastSeen))...)
}

// evict drops a flow's state and releases its ID in the table, free at
// once for the next new prefix (a pinned table keeps it bound). A flow
// is evicted after evictWindows·W idle intervals, and each of the last
// W zeroed one of its slots, so its history is already all zero: a
// future flow admitted under this ID starts from the history a
// brand-new flow gets.
func (w *LatentWindow) evict(id uint32) {
	w.lastSeen[id] = 0
	w.table.Release(id)
}

// ShareLatentWindows attaches classifiers that would compute the same
// window sums to one LatentWindow per group and returns the windows;
// the caller then calls Observe on each window once per interval,
// before stepping the classifiers, and a classifier that drops out
// midway does not disturb the others' sums. A group is two or more
// classifiers with equal Window, none of which has classified yet, each
// bound to a pinned table — the caller vouches that those tables number
// flows identically, as the tables of cells that interned one series'
// rows in one order do. Everything else keeps owning its window.
//
// The window sums and the eviction rule read bandwidths alone, never a
// threshold, so an attached classifier answers exactly as one owning
// its window would.
func ShareLatentWindows(cls []*LatentHeatClassifier) []*LatentWindow {
	var wins []*LatentWindow
	for i, c := range cls {
		if !c.shareable() {
			continue
		}
		for _, d := range cls[i+1:] {
			if !d.shareable() || d.Window != c.Window {
				continue
			}
			if c.win == nil {
				c.win, c.attached = newLatentWindow(c.Window, c.table), true
				wins = append(wins, c.win)
			}
			d.win, d.attached = c.win, true
		}
	}
	return wins
}
