package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

func pfx(i int) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
}

// snap builds a sorted snapshot assigning pairs[i] to pfx(i);
// non-positive bandwidths are dropped, mirroring an idle flow.
func snap(pairs ...float64) *FlowSnapshot {
	s := NewFlowSnapshot(len(pairs))
	for i, bw := range pairs {
		s.Append(pfx(i), bw)
	}
	return s
}

// classifySet runs one Classify call and resolves the verdict into a
// concrete membership set.
func classifySet(c Classifier, s *FlowSnapshot, theta float64) ElephantSet {
	return mergeElephantsArena(s, c.Classify(s, theta), nil)
}

// tabled drives a latent-heat classifier the way Pipeline.Step does,
// on a private table: each Classify stamps the snapshot's ID column
// from the table first.
type tabled struct {
	*LatentHeatClassifier
}

func newTabled(t testing.TB, window int) tabled {
	t.Helper()
	c, err := NewLatentHeatClassifier(window)
	if err != nil {
		t.Fatal(err)
	}
	c.table = NewFlowTable()
	return tabled{c}
}

func (c tabled) Classify(s *FlowSnapshot, thresholdHat float64) Verdict {
	c.table.FillIDs(s)
	return c.LatentHeatClassifier.Classify(s, thresholdHat)
}

func TestSingleFeatureStrictExceed(t *testing.T) {
	c := &SingleFeatureClassifier{}
	out := classifySet(c, snap(5, 10, 15), 10)
	if out.Contains(pfx(0)) {
		t.Error("flow below threshold classified")
	}
	if out.Contains(pfx(1)) {
		t.Error("flow AT threshold classified; paper requires strict exceedance")
	}
	if !out.Contains(pfx(2)) {
		t.Error("flow above threshold not classified")
	}
}

func TestSingleFeatureStateless(t *testing.T) {
	c := &SingleFeatureClassifier{}
	a := classifySet(c, snap(20), 10)
	b := classifySet(c, snap(5), 10)
	if !a.Contains(pfx(0)) || b.Contains(pfx(0)) {
		t.Error("single-feature classification must depend only on the current interval")
	}
}

func TestSingleFeatureIndicesAscending(t *testing.T) {
	c := &SingleFeatureClassifier{}
	v := c.Classify(snap(50, 5, 50, 5, 50), 10)
	if len(v.Offline) != 0 {
		t.Errorf("stateless classifier produced offline flows: %v", v.Offline)
	}
	want := []int{0, 2, 4}
	if len(v.Indices) != len(want) {
		t.Fatalf("indices = %v, want %v", v.Indices, want)
	}
	for i, idx := range want {
		if v.Indices[i] != idx {
			t.Fatalf("indices = %v, want %v", v.Indices, want)
		}
	}
}

func TestLatentHeatValidation(t *testing.T) {
	if _, err := NewLatentHeatClassifier(0); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := NewLatentHeatClassifier(-3); err == nil {
		t.Error("negative window accepted")
	}
	c, err := NewLatentHeatClassifier(12)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "latent-heat" {
		t.Errorf("Name = %q", c.Name())
	}
}

// TestLatentHeatDefinition verifies LH_j(t) = sum over the window of
// (x_j(i) - thetaHat(i)) against hand-computed values.
func TestLatentHeatDefinition(t *testing.T) {
	c := newTabled(t, 3)
	// Interval 0: x=10, theta=8  -> LH = +2 -> elephant
	out := classifySet(c, snap(10), 8)
	if !out.Contains(pfx(0)) {
		t.Fatal("interval 0: LH=+2 but not classified")
	}
	if lh, ok := c.LatentHeat(pfx(0)); !ok || lh != 2 {
		t.Fatalf("LH = %v, %v; want 2", lh, ok)
	}
	// Interval 1: x=5, theta=8 -> LH = 2 + (5-8) = -1 -> mouse
	out = classifySet(c, snap(5), 8)
	if out.Contains(pfx(0)) {
		t.Fatal("interval 1: LH=-1 but classified")
	}
	if lh, _ := c.LatentHeat(pfx(0)); lh != -1 {
		t.Fatalf("LH = %v, want -1", lh)
	}
	// Interval 2: x=12, theta=8 -> LH = 2 - 3 + 4 = +3 -> elephant
	out = classifySet(c, snap(12), 8)
	if !out.Contains(pfx(0)) {
		t.Fatal("interval 2: LH=+3 but not classified")
	}
	// Interval 3: window slides off interval 0 (x=10,theta=8).
	// x=0 (idle), theta=8 -> LH = -3 + 4 - 8 = -7 -> mouse
	out = classifySet(c, snap(), 8)
	if out.Contains(pfx(0)) {
		t.Fatal("interval 3: LH=-7 but classified")
	}
	if lh, _ := c.LatentHeat(pfx(0)); lh != -7 {
		t.Fatalf("LH = %v, want -7 (window slid)", lh)
	}
}

// TestLatentHeatOfflineElephant: a flow idle in the current interval but
// with accumulated positive latent heat must surface through the
// verdict's Offline column — the case an index-only return type cannot
// express.
func TestLatentHeatOfflineElephant(t *testing.T) {
	c := newTabled(t, 8)
	c.Classify(snap(10000), 100)
	s := snap() // flow 0 idle
	v := c.Classify(s, 100)
	if len(v.Indices) != 0 {
		t.Errorf("idle interval produced snapshot indices %v", v.Indices)
	}
	if len(v.Offline) != 1 || v.Offline[0] != pfx(0) {
		t.Fatalf("offline = %v, want [%v]", v.Offline, pfx(0))
	}
	if out := mergeElephantsArena(s, v, nil); !out.Contains(pfx(0)) {
		t.Error("offline elephant lost in merge")
	}
}

// TestLatentHeatFiltersOneSlotBurst: the defining behaviour — a mouse
// bursting above the threshold for a single interval stays a mouse,
// unlike under single-feature classification.
func TestLatentHeatFiltersOneSlotBurst(t *testing.T) {
	lh := newTabled(t, 12)
	sf := &SingleFeatureClassifier{}
	theta := 100.0

	// Eleven intervals of modest traffic below the threshold.
	for i := 0; i < 11; i++ {
		lh.Classify(snap(50), theta)
		sf.Classify(snap(50), theta)
	}
	// One interval bursting to 3x the threshold.
	lhOut := classifySet(lh, snap(300), theta)
	sfOut := classifySet(sf, snap(300), theta)
	if !sfOut.Contains(pfx(0)) {
		t.Error("single-feature must classify the burst interval")
	}
	if lhOut.Contains(pfx(0)) {
		t.Error("latent heat must filter a one-slot burst after a deficit history")
	}
}

// TestLatentHeatToleratesOneSlotDip: the symmetric case — an
// established elephant dipping below the threshold for one interval
// stays an elephant.
func TestLatentHeatToleratesOneSlotDip(t *testing.T) {
	lh := newTabled(t, 12)
	theta := 100.0
	for i := 0; i < 11; i++ {
		lh.Classify(snap(200), theta)
	}
	out := classifySet(lh, snap(10), theta) // deep dip
	if !out.Contains(pfx(0)) {
		t.Error("latent heat must carry an established elephant through a one-slot dip")
	}
}

// TestLatentHeatNewFlowMidStream: a flow first seen at interval k has no
// tracked history; the window's threshold sum includes slots before its
// arrival, so a new flow must overcome the full window deficit — the
// admission control that kills one-interval elephants.
func TestLatentHeatNewFlowMidStream(t *testing.T) {
	lh := newTabled(t, 4)
	for i := 0; i < 4; i++ {
		lh.Classify(snap(0, 200), 100) // only flow 1 active
	}
	// Flow 0 appears with bandwidth just above one threshold's worth:
	// LH = 150 - 4*100 < 0 -> mouse.
	out := classifySet(lh, snap(150, 200), 100)
	if out.Contains(pfx(0)) {
		t.Error("newly arrived flow with sub-window volume classified")
	}
	// A massive arrival beats the whole window: 1000 > 4*100.
	out = classifySet(lh, snap(1000, 200), 100)
	if !out.Contains(pfx(0)) {
		t.Error("overwhelming new flow not classified")
	}
}

// TestLatentHeatEviction pins the one eviction rule: a flow idle for
// 4W−1 intervals is still tracked, one idle for 4W is gone.
func TestLatentHeatEviction(t *testing.T) {
	const w = 2
	lh := newTabled(t, w)
	lh.Classify(snap(500), 100)
	if lh.TrackedFlows() != 1 {
		t.Fatalf("tracked = %d", lh.TrackedFlows())
	}
	for i := 1; i < 4*w; i++ {
		lh.Classify(snap(), 100)
	}
	if _, ok := lh.LatentHeat(pfx(0)); !ok || lh.TrackedFlows() != 1 {
		t.Fatalf("flow dropped after %d idle intervals, before 4W = %d", 4*w-1, 4*w)
	}
	lh.Classify(snap(), 100)
	if lh.TrackedFlows() != 0 {
		t.Errorf("idle flow not evicted after 4W = %d intervals: tracked = %d", 4*w, lh.TrackedFlows())
	}
	if _, ok := lh.LatentHeat(pfx(0)); ok {
		t.Error("evicted flow still reports latent heat")
	}
}

// TestLatentHeatRequiresBoundTable: latent heat runs on its pipeline's
// table; an unbound classifier, or a snapshot whose IDs another table
// stamped, is a wiring bug and panics instead of being repaired.
func TestLatentHeatRequiresBoundTable(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Classify did not panic", name)
			}
		}()
		f()
	}
	unbound, _ := NewLatentHeatClassifier(3)
	mustPanic("unbound", func() { unbound.Classify(snap(10), 1) })

	lh := newTabled(t, 3)
	mustPanic("unstamped snapshot", func() { lh.LatentHeatClassifier.Classify(snap(10), 1) })
	foreign := snap(10)
	NewFlowTable().FillIDs(foreign)
	mustPanic("foreign IDs", func() { lh.LatentHeatClassifier.Classify(foreign, 1) })
}

func TestLatentHeatUnknownFlowQuery(t *testing.T) {
	lh := newTabled(t, 4)
	if _, ok := lh.LatentHeat(pfx(9)); ok {
		t.Error("unknown flow reported known")
	}
}

// panicMessage returns what f panicked with, "<nil>" if it returned.
func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// TestLatentHeatMisusePanics: each wiring bug the latent-heat classifier
// refuses panics with core's own message, not with the nil dereference
// or index error its body would hit next; before any Classify it tracks
// nothing, and a flow interned after its window last grew is unknown.
func TestLatentHeatMisusePanics(t *testing.T) {
	bare, err := NewLatentHeatClassifier(3)
	if err != nil {
		t.Fatal(err)
	}
	if n := bare.TrackedFlows(); n != 0 {
		t.Errorf("TrackedFlows before any Classify = %d, want 0", n)
	}
	own := newTabled(t, 3)
	foreign := snap(5)
	NewFlowTable().FillIDs(foreign)
	tb := NewFlowTable()
	tb.Pin()
	a, b := boundLatent(t, 3, tb), boundLatent(t, 3, tb)
	wins := ShareLatentWindows([]*LatentHeatClassifier{a, b})
	shared := snap(5)
	tb.FillIDs(shared)
	stranger := NewFlowSnapshot(1) // ID 0 of another table, not tb's pfx(0)
	stranger.Append(pfx(7), 5)
	NewFlowTable().FillIDs(stranger)
	defer func(on bool) { DebugInvariants = on }(DebugInvariants)
	DebugInvariants = true
	for _, tc := range []struct {
		want string
		f    func()
	}{
		{"without a flow table", func() { bare.Classify(snap(5), 1) }},
		{"not stamped by the classifier's flow table", func() { own.LatentHeatClassifier.Classify(snap(5), 1) }},
		{"not stamped by the classifier's flow table", func() { own.LatentHeatClassifier.Classify(foreign, 1) }},
		{"at interval 1, its shared window at 0", func() { a.Classify(shared, 1) }},
		{"snapshot without an ID column", func() { wins[0].Observe(snap(5)) }},
		{"does not resolve to 10.0.7.0/24", func() { wins[0].Observe(stranger) }},
	} {
		if got := panicMessage(tc.f); !strings.Contains(got, tc.want) {
			t.Errorf("panic %q, want one containing %q", got, tc.want)
		}
	}
	own.Classify(snap(5), 1)
	late := pfx(1)
	own.table.Intern(late)
	if _, ok := own.LatentHeat(late); ok {
		t.Error("a flow interned after the last Classify has a latent heat")
	}
}

// TestLatentHeatIdleWindowIsExactlyZero: once a flow's W slots have all
// been zeroed its window sum is 0 exactly, whatever bandwidths it held
// before (0.1, 0.2, 0.3 have no exact sum), so at θ̂ = 0 the idle flow
// is no elephant.
func TestLatentHeatIdleWindowIsExactlyZero(t *testing.T) {
	c := newTabled(t, 3)
	for _, bw := range []float64{0.1, 0.2, 0.3} {
		c.Classify(snap(bw), 0)
	}
	var v Verdict
	for range 3 {
		s := NewFlowSnapshot(1)
		s.Append(pfx(1), 1)
		v = c.Classify(s, 0)
	}
	if len(v.Offline) != 0 {
		t.Errorf("idle flow an offline elephant at θ̂ = 0: %v", v.Offline)
	}
	if lh, ok := c.LatentHeat(pfx(0)); !ok || lh != 0 {
		t.Errorf("LatentHeat = %v, %v; want exactly 0, true", lh, ok)
	}
}
