package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// sketchKind selects which k-counter summary a SketchClassifier runs.
type sketchKind uint8

const (
	sketchMisraGries sketchKind = iota
	sketchSpaceSaving
)

// SketchClassifier adapts a k-counter heavy-hitter sketch to
// core.Classifier, making the streaming-sketch baselines runnable
// through the same pipeline, engine and CLIs as the paper's schemes.
// Each interval it feeds every active flow's bandwidth through a fresh
// sketch and classifies as elephants the flows whose estimated share
// of the interval's traffic exceeds 1/(k+1), the classic support
// threshold. The smoothed threshold is
// ignored: like TopKClassifier this baseline is volume-only, with no
// adaptive threshold and no persistence — exactly what the paper's
// two-feature scheme is compared against. Memory is bounded by the
// sketch's k counters instead of the interval's flow count, which is
// the operational argument for sketches; the price is approximation
// error (under-estimates for Misra–Gries, over-estimates for
// Space-Saving).
//
// The per-interval state is columnar and keyed by snapshot index
// rather than by prefix: counters live in flat slot arrays owned by
// snapshot indices, so the classify path never hashes or compares a
// prefix. Each index is fed exactly once an interval, so a flow is
// never already tracked when it arrives and no flow→counter lookup is
// kept. The verdicts are identical to the textbook map-based
// MisraGries/SpaceSaving sketches (the oracle in sketch_test.go) fed
// in snapshot order: every eviction decision depends only on counter
// values with a deterministic tie-break, and because the snapshot is
// strictly sorted by prefix, the sketches' prefix tie-break order is
// exactly the snapshot index order.
type SketchClassifier struct {
	kind sketchKind
	k    int
	name string

	// owner/cnt/errv are the k counter slots: owning snapshot index,
	// counter value, and (Space-Saving only) the overestimation bound
	// inherited at eviction.
	owner   []int32
	cnt     []float64
	errv    []float64
	scratch []int

	// Space-Saving keeps its occupied slots in a min-heap so each
	// eviction finds its minimum in O(log k) instead of an O(k) argmin
	// scan per new flow: heap lists the slots in heap order. The heap
	// key is (count, owner), whose unique lexicographic minimum is
	// exactly the slot the linear scan selected, and an eviction only
	// grows the root's key, so a siftDown from the root restores the
	// invariant.
	// Misra–Gries deliberately stays linear: its decrement step touches
	// every surviving counter anyway (a uniform O(k) subtraction), so a
	// heap saves nothing there and measurably loses to two dense
	// sequential passes on the flat slot arrays.
	heap []int32
}

// NewMisraGriesClassifier returns a per-interval Misra–Gries
// heavy-hitter classifier with k counters. Both sketch classifiers cut
// on their guaranteed weight (Misra–Gries underestimates,
// Space-Saving's count minus its error bound), so the elephant set has
// no false positives; borderline true heavy hitters whose guarantee
// falls below the cut are missed — part of what the exact adaptive
// schemes buy over a k-counter memory budget.
func NewMisraGriesClassifier(k int) (*SketchClassifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: misra-gries with k=%d", k)
	}
	return newSketchClassifier(sketchMisraGries, fmt.Sprintf("misra-gries-%d", k), k), nil
}

// NewSpaceSavingClassifier returns a per-interval Space-Saving
// heavy-hitter classifier with k counters.
func NewSpaceSavingClassifier(k int) (*SketchClassifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: space-saving with k=%d", k)
	}
	return newSketchClassifier(sketchSpaceSaving, fmt.Sprintf("space-saving-%d", k), k), nil
}

func newSketchClassifier(kind sketchKind, name string, k int) *SketchClassifier {
	c := &SketchClassifier{
		kind:  kind,
		k:     k,
		name:  name,
		owner: make([]int32, k),
		cnt:   make([]float64, k),
		errv:  make([]float64, k),
	}
	if kind == sketchSpaceSaving {
		c.heap = make([]int32, 0, k)
	}
	return c
}

// less orders slots by Space-Saving's eviction key.
func (c *SketchClassifier) less(a, b int32) bool {
	if c.cnt[a] != c.cnt[b] {
		return c.cnt[a] < c.cnt[b]
	}
	return c.owner[a] < c.owner[b]
}

func (c *SketchClassifier) siftUp(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !c.less(c.heap[j], c.heap[parent]) {
			break
		}
		c.heap[j], c.heap[parent] = c.heap[parent], c.heap[j]
		j = parent
	}
}

func (c *SketchClassifier) siftDown(j int) {
	n := len(c.heap)
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && c.less(c.heap[r], c.heap[l]) {
			m = r
		}
		if !c.less(c.heap[m], c.heap[j]) {
			break
		}
		c.heap[j], c.heap[m] = c.heap[m], c.heap[j]
		j = m
	}
}

// Name implements core.Classifier.
func (c *SketchClassifier) Name() string { return c.name }

// Classify implements core.Classifier. The threshold argument is
// ignored. The snapshot's sorted flow order makes the sketch's
// eviction decisions, and therefore the verdict, deterministic.
func (c *SketchClassifier) Classify(snap *core.FlowSnapshot, _ float64) core.Verdict {
	var total float64
	var nslots int
	if c.kind == sketchMisraGries {
		total, nslots = c.runMisraGries(snap.Bandwidths())
	} else {
		c.heap = c.heap[:0]
		total = c.runSpaceSaving(snap.Bandwidths())
		nslots = len(c.heap)
	}
	cut := 1 / float64(c.k+1) * total
	c.scratch = c.scratch[:0]
	// Space-Saving's occupied slots are 0..len(heap) because it never
	// frees a slot, so both sketches scan the dense slot prefix; the
	// verdict depends only on the (owner, count) multiset, and the
	// indices are sorted below.
	for s := 0; s < nslots; s++ {
		guaranteed := c.cnt[s]
		if c.kind == sketchSpaceSaving {
			guaranteed -= c.errv[s]
		}
		if guaranteed > cut {
			c.scratch = append(c.scratch, int(c.owner[s]))
		}
	}
	sort.Ints(c.scratch)
	return core.Verdict{Indices: c.scratch}
}

// runMisraGries streams the bandwidth column through k Misra–Gries
// counters: a new flow either takes a free slot or triggers the
// decrement-all step, subtracting the smallest amount that frees at
// least one counter (min of the new weight and the smallest counter —
// the same weighted-update rule as MisraGries.Add). Deleted slots are
// compacted by moving the last occupied slot down.
//
// The minimum counter is tracked incrementally, never rescanned: the
// subtract/compact pass computes the survivors' minimum as it goes and
// inserts fold their value in. No counter grows in place (each flow
// arrives once), so nothing can raise the minimum behind the tracker's
// back. The floats are untouched — curMin is always a value some cnt[s]
// holds, compared and subtracted exactly as a two-pass form would — so
// decrement amounts, deletion sets and verdicts are bit-identical.
func (c *SketchClassifier) runMisraGries(bw []float64) (total float64, nslots int) {
	curMin := math.MaxFloat64
	for i, w := range bw {
		total += w
		if nslots < c.k {
			c.owner[nslots], c.cnt[nslots] = int32(i), w
			nslots++
			curMin = min(curMin, w)
			continue
		}
		if w < curMin {
			// Pure-decrement step: dec = w frees no counter (cnt − w ≤ 0
			// would need cnt ≤ w < curMin ≤ cnt) and leaves no remainder
			// to insert, so the whole step is one uniform subtraction.
			// IEEE rounding is monotone, so the minimum slot stays
			// minimal and its new value is exactly curMin − w — no
			// deletion checks, no min re-tracking.
			cnt := c.cnt[:nslots]
			for s := range cnt {
				cnt[s] -= w
			}
			curMin -= w
			continue
		}
		dec := curMin // min(w, curMin), and at least one slot sits at it
		newMin := math.MaxFloat64
		// Subtract-and-compact pass with move-last-into-hole deletion:
		// only the slots that die (cnt == curMin, usually one or two)
		// cost any bookkeeping, and every survivor is just
		// load/sub/store/min — no owner or slot shuffling. Slot
		// arrangement differs from a stable compaction, but slot
		// numbering never reaches the verdict (deletion is by value,
		// indices are sorted) and the per-owner counter values are
		// identical. A moved-in slot re-runs the loop body, so it is
		// decremented exactly once like every other survivor.
		cnt, owner := c.cnt, c.owner
		for s := 0; s < nslots; {
			v := cnt[s] - dec
			if v <= 0 {
				nslots--
				cnt[s] = cnt[nslots]
				owner[s] = owner[nslots]
				continue
			}
			cnt[s] = v
			if v < newMin {
				newMin = v
			}
			s++
		}
		if rest := w - dec; rest > 0 && nslots < c.k {
			c.owner[nslots], c.cnt[nslots] = int32(i), rest
			nslots++
			if rest < newMin {
				newMin = rest
			}
		}
		curMin = newMin
	}
	return total, nslots
}

// runSpaceSaving streams the bandwidth column through k Space-Saving
// counters: a new flow beyond capacity evicts the minimum counter and
// inherits its count as both base and error bound. The heap is keyed
// (count, owner), whose unique lexicographic minimum is exactly what
// the linear argmin scan selected — same eviction sequence, same
// verdicts. The owner tie-break matches SpaceSaving.Add's prefix
// tie-break, since snapshot order is prefix order. Every update only
// grows a slot's key (bandwidths are positive), so a siftDown from
// the root restores the heap after an eviction.
func (c *SketchClassifier) runSpaceSaving(bw []float64) (total float64) {
	for i, w := range bw {
		total += w
		if len(c.heap) < c.k {
			s := int32(len(c.heap))
			c.owner[s], c.cnt[s], c.errv[s] = int32(i), w, 0
			c.heap = append(c.heap, s)
			c.siftUp(int(s))
			continue
		}
		s := c.heap[0]
		c.errv[s] = c.cnt[s]
		c.cnt[s] += w
		c.owner[s] = int32(i)
		c.siftDown(0)
	}
	return total
}
