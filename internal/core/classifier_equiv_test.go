package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

// refLatentHeat is the pre-refactor prefix-keyed LatentHeatClassifier,
// kept as the behavioural reference for the dense-ID columnar
// implementation: per-flow ring buffers in a map, O(W) window re-sums
// added oldest first, and a full-map idle scan, evicting a flow idle
// for 4W intervals. The equivalence tests drive both implementations
// with identical inputs and require identical verdicts and latent
// heats.
type refLatentHeat struct {
	Window int

	t       int
	history []float64
	flows   map[netip.Prefix]*refFlowHistory

	idx     []int
	offline []netip.Prefix
}

type refFlowHistory struct {
	bw       []float64
	idleRuns int
	lastSeen int
}

func newRefLatentHeat(window int) *refLatentHeat {
	return &refLatentHeat{Window: window, flows: make(map[netip.Prefix]*refFlowHistory)}
}

func (c *refLatentHeat) Name() string { return "latent-heat-ref" }

func (c *refLatentHeat) thresholdSum() float64 {
	var s float64
	n := len(c.history)
	w := c.Window
	if n < w {
		w = n
	}
	for i := n - w; i < n; i++ {
		s += c.history[i]
	}
	return s
}

// windowSum returns Σ x over a flow's ring, oldest slot first: the
// slot the next interval writes.
func (c *refLatentHeat) windowSum(fh *refFlowHistory) float64 {
	var s float64
	for k := range c.Window {
		s += fh.bw[(c.t+k)%c.Window]
	}
	return s
}

func (c *refLatentHeat) LatentHeat(p netip.Prefix) (float64, bool) {
	fh, ok := c.flows[p]
	if !ok {
		return 0, false
	}
	return c.windowSum(fh) - c.thresholdSum(), true
}

func (c *refLatentHeat) Classify(snap *FlowSnapshot, thresholdHat float64) Verdict {
	evictAfter := 4 * c.Window
	c.history = append(c.history, thresholdHat)
	if len(c.history) > c.Window {
		c.history = c.history[len(c.history)-c.Window:]
	}
	slot := c.t % c.Window
	c.t++

	for i := 0; i < snap.Len(); i++ {
		p, bw := snap.Key(i), snap.Bandwidth(i)
		fh, ok := c.flows[p]
		if !ok {
			fh = &refFlowHistory{bw: make([]float64, c.Window)}
			c.flows[p] = fh
		}
		fh.bw[slot] = bw
		fh.idleRuns = 0
		fh.lastSeen = c.t
	}

	thrSum := c.thresholdSum()
	c.idx = c.idx[:0]
	c.offline = c.offline[:0]
	for i := 0; i < snap.Len(); i++ {
		if c.windowSum(c.flows[snap.Key(i)])-thrSum > 0 {
			c.idx = append(c.idx, i)
		}
	}
	for p, fh := range c.flows {
		if fh.lastSeen == c.t {
			continue
		}
		fh.bw[slot] = 0
		fh.idleRuns++
		if c.windowSum(fh)-thrSum > 0 {
			c.offline = append(c.offline, p)
		} else if fh.idleRuns >= evictAfter {
			delete(c.flows, p)
		}
	}
	sort.Slice(c.offline, func(i, j int) bool {
		return ComparePrefix(c.offline[i], c.offline[j]) < 0
	})
	return Verdict{Indices: c.idx, Offline: c.offline}
}

// equivInterval builds one random interval: a sorted snapshot over a
// subset of the flow pool. Flows idle with probability pIdle, and a few
// flows get long forced-idle stretches so eviction and readmission
// after it are exercised.
func equivInterval(rng *rand.Rand, pool []netip.Prefix, t int, integerBw bool) *FlowSnapshot {
	s := NewFlowSnapshot(len(pool))
	for i, p := range pool {
		// Flows 0..4 idle in long phases to force eviction/readmission.
		if i < 5 && (t/17)%2 == i%2 {
			continue
		}
		if rng.Float64() < 0.3 {
			continue
		}
		var bw float64
		if integerBw {
			bw = float64(rng.Intn(5000) + 1)
		} else {
			bw = rng.Float64() * 5e4
		}
		s.Append(p, bw)
	}
	return s
}

func verdictsEqual(a, b Verdict) bool {
	if len(a.Indices) != len(b.Indices) || len(a.Offline) != len(b.Offline) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	for i := range a.Offline {
		if a.Offline[i] != b.Offline[i] {
			return false
		}
	}
	return true
}

// TestLatentHeatEquivalence drives the columnar ID-indexed classifier
// and the prefix-keyed reference through identical random interval
// sequences — idle phases, evictions, readmissions — and requires
// identical verdicts and bit-identical latent heats every interval.
// Both add a window oldest first, so the continuous bandwidths agree to
// the last bit as the integer ones do.
func TestLatentHeatEquivalence(t *testing.T) {
	for _, tc := range []struct {
		window  int
		integer bool
		flows   int // past 60, two more flows open each interval
	}{
		{1, true, 60}, {2, true, 60}, {3, true, 60}, {12, true, 60},
		{2, false, 60}, {12, false, 60},
		// The window's columns outgrow their 256-flow stride twice,
		// with history in every slot.
		{3, true, 600},
	} {
		name := fmt.Sprintf("w=%d,int=%v", tc.window, tc.integer)
		if tc.flows != 60 {
			name += fmt.Sprintf(",flows=%d", tc.flows)
		}
		t.Run(name, func(t *testing.T) {
			pool := make([]netip.Prefix, tc.flows)
			for i := range pool {
				pool[i] = pfx(i)
			}
			rng := rand.New(rand.NewSource(int64(tc.window * 100)))
			got := newTabled(t, tc.window)
			want := newRefLatentHeat(tc.window)
			for step := 0; step < 400; step++ {
				snap := equivInterval(rng, pool[:min(len(pool), 60+2*step)], step, tc.integer)
				var thr float64
				if tc.integer {
					thr = float64(rng.Intn(2000))
				} else {
					thr = rng.Float64() * 2e4
				}
				gv := got.Classify(snap, thr)
				wv := want.Classify(snap, thr)
				if !verdictsEqual(gv, wv) {
					t.Fatalf("interval %d: verdicts diverge\n got %v %v\nwant %v %v",
						step, gv.Indices, gv.Offline, wv.Indices, wv.Offline)
				}
				if got.TrackedFlows() != len(want.flows) {
					t.Fatalf("interval %d: tracked %d, reference %d", step, got.TrackedFlows(), len(want.flows))
				}
				for _, p := range pool {
					glh, gok := got.LatentHeat(p)
					wlh, wok := want.LatentHeat(p)
					if gok != wok || glh != wlh {
						t.Fatalf("interval %d: LatentHeat(%v) = %v,%v, reference %v,%v", step, p, glh, gok, wlh, wok)
					}
				}
			}
		})
	}
}

// TestPipelineResultEquivalence runs two full pipelines — identical
// detector, EWMA and inputs; one with the columnar classifier, one with
// the prefix-keyed reference — and requires byte-identical Results:
// same thresholds, same elephant sets, same loads. This is the
// whole-hot-path pin for the ID refactor on the batch entry point.
func TestPipelineResultEquivalence(t *testing.T) {
	pool := make([]netip.Prefix, 80)
	for i := range pool {
		pool[i] = pfx(i)
	}
	mk := func(cl Classifier) *Pipeline {
		det, err := NewConstantLoadDetector(0.8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPipeline(Config{Detector: det, Alpha: 0.5, Classifier: cl, MinFlows: 4})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// W = 3 evicts after 12 idle intervals, inside fillEquiv's 13-interval
	// idle phases.
	lh, err := NewLatentHeatClassifier(3)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefLatentHeat(3)
	pGot, pWant := mk(lh), mk(ref)

	rng := rand.New(rand.NewSource(99))
	var sGot, sWant *FlowSnapshot
	for step := 0; step < 300; step++ {
		// Two identical snapshots: Step attaches IDs to the columnar
		// pipeline's snapshot, so the instances must be distinct.
		seed := rng.Int63()
		sGot = fillEquiv(sGot, pool, seed, step)
		sWant = fillEquiv(sWant, pool, seed, step)
		rg, errG := pGot.Step(sGot)
		rw, errW := pWant.Step(sWant)
		if (errG == nil) != (errW == nil) {
			t.Fatalf("interval %d: error mismatch: %v vs %v", step, errG, errW)
		}
		if errG != nil {
			continue
		}
		if rg.RawThreshold != rw.RawThreshold || rg.Threshold != rw.Threshold {
			t.Fatalf("interval %d: thresholds %v/%v vs %v/%v", step, rg.RawThreshold, rg.Threshold, rw.RawThreshold, rw.Threshold)
		}
		if rg.ElephantLoad != rw.ElephantLoad || rg.TotalLoad != rw.TotalLoad || rg.ActiveFlows != rw.ActiveFlows {
			t.Fatalf("interval %d: loads diverge: %+v vs %+v", step, rg, rw)
		}
		if !rg.Elephants.Equal(rw.Elephants) {
			t.Fatalf("interval %d: elephant sets diverge: %v vs %v", step, rg.Elephants.Flows(), rw.Elephants.Flows())
		}
	}
}

// fillEquiv deterministically fills a snapshot from a seed so two
// pipeline runs see identical columns in identical order.
func fillEquiv(dst *FlowSnapshot, pool []netip.Prefix, seed int64, t int) *FlowSnapshot {
	if dst == nil {
		dst = NewFlowSnapshot(len(pool))
	}
	dst.Reset()
	rng := rand.New(rand.NewSource(seed))
	for i, p := range pool {
		if i < 4 && (t/13)%2 == 0 {
			continue
		}
		if rng.Float64() < 0.25 {
			continue
		}
		dst.Append(p, rng.Float64()*1e5)
	}
	return dst
}

// TestLatentHeatSteadyStateAllocs pins the zero-allocation contract of
// the resident classify path: once flow columns and scratch buffers are
// warm, Classify must not allocate — per-interval garbage is what the
// dense-ID refactor exists to eliminate.
func TestLatentHeatSteadyStateAllocs(t *testing.T) {
	lh := newTabled(t, 12)
	snap := NewFlowSnapshot(512)
	for i := 0; i < 512; i++ {
		snap.Append(pfx(i), 1e4+float64(i))
	}
	lh.table.FillIDs(snap)
	for i := 0; i < 2*12; i++ {
		lh.LatentHeatClassifier.Classify(snap, 9e3)
	}
	if avg := testing.AllocsPerRun(200, func() { lh.LatentHeatClassifier.Classify(snap, 9e3) }); avg != 0 {
		t.Fatalf("steady-state Classify allocates %v times per interval, want 0", avg)
	}
}
