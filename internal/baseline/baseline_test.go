package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/core"
)

func pfx(i int) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
}

func TestFixedThresholdDetector(t *testing.T) {
	if _, err := NewFixedThresholdDetector(0); err == nil {
		t.Error("theta=0 accepted")
	}
	d, err := NewFixedThresholdDetector(1e6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.DetectThreshold([]float64{3, 1, 2}, []float64{1, 2, 3})
	if err != nil || got != 1e6 {
		t.Errorf("DetectThreshold = %v, %v", got, err)
	}
	if d.Name() != "fixed-1e+06" {
		t.Errorf("Name = %q", d.Name())
	}
}

// topKSet resolves a TopK verdict into snapshot prefixes.
func topKSet(snap *core.FlowSnapshot, v core.Verdict) map[netip.Prefix]bool {
	out := make(map[netip.Prefix]bool, len(v.Indices))
	for _, i := range v.Indices {
		out[snap.Key(i)] = true
	}
	return out
}

func TestTopKClassifier(t *testing.T) {
	if _, err := NewTopKClassifier(0); err == nil {
		t.Error("k=0 accepted")
	}
	c, err := NewTopKClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	s := core.SnapshotFromMap(map[netip.Prefix]float64{
		pfx(0): 10, pfx(1): 100, pfx(2): 50, pfx(3): 1,
	}, nil)
	out := topKSet(s, c.Classify(s, 99999)) // threshold must be ignored
	if len(out) != 2 || !out[pfx(1)] || !out[pfx(2)] {
		t.Errorf("top-2 = %v", out)
	}
}

func TestTopKFewerFlowsThanK(t *testing.T) {
	c, _ := NewTopKClassifier(10)
	s := core.SnapshotFromMap(map[netip.Prefix]float64{pfx(0): 5}, nil)
	out := topKSet(s, c.Classify(s, 0))
	if len(out) != 1 {
		t.Errorf("out = %v", out)
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	c, _ := NewTopKClassifier(1)
	s := core.SnapshotFromMap(map[netip.Prefix]float64{pfx(3): 5, pfx(1): 5, pfx(2): 5}, nil)
	first := topKSet(s, c.Classify(s, 0))
	for i := 0; i < 20; i++ {
		got := topKSet(s, c.Classify(s, 0))
		for p := range first {
			if !got[p] {
				t.Fatal("tie-break not deterministic")
			}
		}
	}
	if !first[pfx(1)] {
		t.Errorf("tie must resolve to the lowest prefix, got %v", first)
	}
}

// TestTopKIndicesAscending: the Verdict ordering contract.
func TestTopKIndicesAscending(t *testing.T) {
	c, _ := NewTopKClassifier(3)
	s := core.SnapshotFromMap(map[netip.Prefix]float64{
		pfx(0): 1, pfx(1): 50, pfx(2): 2, pfx(3): 40, pfx(4): 60,
	}, nil)
	v := c.Classify(s, 0)
	for i := 1; i < len(v.Indices); i++ {
		if v.Indices[i-1] >= v.Indices[i] {
			t.Fatalf("indices not ascending: %v", v.Indices)
		}
	}
	out := topKSet(s, v)
	if !out[pfx(1)] || !out[pfx(3)] || !out[pfx(4)] {
		t.Errorf("top-3 = %v", out)
	}
}

func TestMisraGriesExactSmall(t *testing.T) {
	m, err := NewMisraGries(4)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer distinct flows than counters: exact counts.
	m.Add(pfx(0), 100)
	m.Add(pfx(1), 50)
	m.Add(pfx(0), 100)
	if got, ok := m.Estimate(pfx(0)); !ok || got != 200 {
		t.Errorf("estimate = %v, %v", got, ok)
	}
	if m.Total() != 250 {
		t.Errorf("total = %v", m.Total())
	}
}

func TestMisraGriesValidation(t *testing.T) {
	if _, err := NewMisraGries(0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestMisraGriesGuarantee: every flow with true weight > Total/(k+1)
// must survive in the summary, and estimates never exceed true weights.
func TestMisraGriesGuarantee(t *testing.T) {
	const k = 9
	m, _ := NewMisraGries(k)
	rng := rand.New(rand.NewSource(70))
	truth := map[netip.Prefix]float64{}
	// Two genuinely heavy flows amid a sea of small ones.
	for i := 0; i < 20000; i++ {
		var p netip.Prefix
		var w float64
		switch {
		case i%10 == 0:
			p, w = pfx(0), 40+rng.Float64()*10
		case i%10 == 1:
			p, w = pfx(1), 30+rng.Float64()*10
		default:
			p, w = pfx(2+rng.Intn(500)), 1+rng.Float64()
		}
		truth[p] += w
		m.Add(p, w)
	}
	bound := m.Total() / float64(k+1)
	for _, heavy := range []netip.Prefix{pfx(0), pfx(1)} {
		if truth[heavy] <= bound {
			t.Skipf("test workload too flat: %v <= %v", truth[heavy], bound)
		}
		est, ok := m.Estimate(heavy)
		if !ok {
			t.Fatalf("heavy flow %v lost (true %v > bound %v)", heavy, truth[heavy], bound)
		}
		if est > truth[heavy]+1e-9 {
			t.Errorf("%v overestimated: %v > %v", heavy, est, truth[heavy])
		}
		if est < truth[heavy]-bound-1e-9 {
			t.Errorf("%v undercount beyond bound: est %v, true %v, bound %v", heavy, est, truth[heavy], bound)
		}
	}
	hh := m.HeavyHitters(1.0 / float64(k+1))
	found := map[netip.Prefix]bool{}
	for _, p := range hh {
		found[p] = true
	}
	if !found[pfx(0)] || !found[pfx(1)] {
		t.Errorf("heavy hitters %v missing the true heavies", hh)
	}
}

func TestMisraGriesReset(t *testing.T) {
	m, _ := NewMisraGries(2)
	m.Add(pfx(0), 10)
	m.Reset()
	if m.Total() != 0 {
		t.Error("total not reset")
	}
	if _, ok := m.Estimate(pfx(0)); ok {
		t.Error("counters not reset")
	}
}

func TestSpaceSavingValidation(t *testing.T) {
	if _, err := NewSpaceSaving(0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestSpaceSavingGuarantees: counts are overestimates bounded by the
// recorded error, and any flow above Total/k is tracked.
func TestSpaceSavingGuarantees(t *testing.T) {
	const k = 10
	s, _ := NewSpaceSaving(k)
	rng := rand.New(rand.NewSource(71))
	truth := map[netip.Prefix]float64{}
	for i := 0; i < 30000; i++ {
		var p netip.Prefix
		var w float64
		if i%5 == 0 {
			p, w = pfx(i%3), 20+rng.Float64()*5 // three heavies
		} else {
			p, w = pfx(10+rng.Intn(800)), 1
		}
		truth[p] += w
		s.Add(p, w)
	}
	for i := 0; i < 3; i++ {
		heavy := pfx(i)
		count, errB, ok := s.Estimate(heavy)
		if !ok {
			t.Fatalf("heavy flow %v not tracked (true %v, total/k %v)", heavy, truth[heavy], s.Total()/k)
		}
		if count < truth[heavy]-1e-9 {
			t.Errorf("%v count %v below true %v (must overestimate)", heavy, count, truth[heavy])
		}
		if count-errB > truth[heavy]+1e-9 {
			t.Errorf("%v guaranteed weight %v exceeds true %v", heavy, count-errB, truth[heavy])
		}
	}
	hh := s.HeavyHitters(0.05)
	if len(hh) == 0 {
		t.Fatal("no heavy hitters at 5%")
	}
	// Results are sorted by descending count.
	prev := math.Inf(1)
	for _, p := range hh {
		c, _, _ := s.Estimate(p)
		if c > prev {
			t.Fatal("heavy hitters not sorted")
		}
		prev = c
	}
}

func TestSpaceSavingBoundedMemory(t *testing.T) {
	const k = 8
	s, _ := NewSpaceSaving(k)
	for i := 0; i < 10000; i++ {
		s.Add(pfx(i%2000), 1)
	}
	if len(s.counters) > k {
		t.Errorf("counters = %d > k = %d", len(s.counters), k)
	}
}

func TestSpaceSavingDeterministicEviction(t *testing.T) {
	run := func() []netip.Prefix {
		s, _ := NewSpaceSaving(3)
		for i := 0; i < 100; i++ {
			s.Add(pfx(i%7), 1) // constant weights force ties
		}
		return s.HeavyHitters(0)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic eviction: %v vs %v", a, b)
		}
	}
}

func TestSketchesIgnoreNonPositive(t *testing.T) {
	m, _ := NewMisraGries(2)
	m.Add(pfx(0), 0)
	m.Add(pfx(0), -5)
	if m.Total() != 0 {
		t.Error("misra-gries accepted non-positive weight")
	}
	s, _ := NewSpaceSaving(2)
	s.Add(pfx(0), 0)
	s.Add(pfx(0), -5)
	if s.Total() != 0 {
		t.Error("space-saving accepted non-positive weight")
	}
}
