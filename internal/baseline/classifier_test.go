package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

func sketchSnap(t *testing.T, bws map[string]float64) *core.FlowSnapshot {
	t.Helper()
	m := make(map[netip.Prefix]float64, len(bws))
	for s, bw := range bws {
		m[netip.MustParsePrefix(s)] = bw
	}
	return core.SnapshotFromMap(m, nil)
}

func TestSketchClassifierFindsHeavyHitter(t *testing.T) {
	snap := sketchSnap(t, map[string]float64{
		"10.0.0.0/24": 1000, // 10/12 of the traffic
		"10.0.1.0/24": 50,
		"10.0.2.0/24": 50,
		"10.0.3.0/24": 50,
		"10.0.4.0/24": 50,
	})
	for name, mk := range map[string]func() (*SketchClassifier, error){
		"misragries":  func() (*SketchClassifier, error) { return NewMisraGriesClassifier(2) },
		"spacesaving": func() (*SketchClassifier, error) { return NewSpaceSavingClassifier(2) },
	} {
		cls, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		v := cls.Classify(snap, 0)
		if len(v.Indices) != 1 {
			t.Fatalf("%s: got %d elephants, want 1", name, len(v.Indices))
		}
		if got := snap.Key(v.Indices[0]); got != netip.MustParsePrefix("10.0.0.0/24") {
			t.Errorf("%s: elephant %v, want 10.0.0.0/24", name, got)
		}
		if len(v.Offline) != 0 {
			t.Errorf("%s: per-interval sketch reported %d offline flows", name, len(v.Offline))
		}
	}
}

// TestSketchClassifierDeterministic pins that two fresh instances
// produce identical verdicts over the same interval sequence — the
// engine's fresh-instances-per-link determinism contract.
func TestSketchClassifierDeterministic(t *testing.T) {
	snaps := []*core.FlowSnapshot{
		sketchSnap(t, map[string]float64{"10.0.0.0/24": 900, "10.0.1.0/24": 30, "10.0.2.0/24": 800, "10.0.3.0/24": 10}),
		sketchSnap(t, map[string]float64{"10.0.0.0/24": 20, "10.0.4.0/24": 700, "10.0.5.0/24": 650, "10.0.6.0/24": 5}),
	}
	mk := func() *SketchClassifier {
		c, err := NewSpaceSavingClassifier(3)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	for i, snap := range snaps {
		va := a.Classify(snap, 123)
		vb := b.Classify(snap, 456) // threshold must be ignored
		if !reflect.DeepEqual(append([]int(nil), va.Indices...), append([]int(nil), vb.Indices...)) {
			t.Fatalf("interval %d: verdicts diverge: %v vs %v", i, va.Indices, vb.Indices)
		}
		for k := 1; k < len(va.Indices); k++ {
			if va.Indices[k-1] >= va.Indices[k] {
				t.Fatalf("interval %d: indices not ascending: %v", i, va.Indices)
			}
		}
	}
}

// hhSketch is the operation set the pre-columnar SketchClassifier
// consumed; the exported map-based sketches still provide it and serve
// as the reference implementation here.
type hhSketch interface {
	Add(p netip.Prefix, weight float64)
	HeavyHitters(fraction float64) []netip.Prefix
	Reset()
}

// referenceVerdict reimplements the original map-sketch Classify —
// reset, feed every flow in snapshot order, cut heavy hitters, map back
// to ascending snapshot indices — against which the columnar rewrite is
// defined.
func referenceVerdict(sk hhSketch, snap *core.FlowSnapshot, fraction float64) []int {
	sk.Reset()
	for i := 0; i < snap.Len(); i++ {
		sk.Add(snap.Key(i), snap.Bandwidth(i))
	}
	var idx []int
	for _, p := range sk.HeavyHitters(fraction) {
		if i, ok := snap.Lookup(p); ok {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx
}

// TestSketchClassifierMatchesMapSketches is the equivalence property:
// the columnar slot-array classifier must produce byte-identical
// verdicts to the map-based Misra–Gries and Space-Saving sketches on
// randomized snapshots, across counter budgets that force evictions,
// with classifier state reused across intervals.
func TestSketchClassifierMatchesMapSketches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	snaps := make([]*core.FlowSnapshot, 20)
	for i := range snaps {
		bws := make(map[string]float64)
		for f, n := 0, 5+rng.Intn(120); f < n; f++ {
			bw := math.Exp(rng.NormFloat64() * 3)
			if rng.Intn(4) == 0 {
				bw *= 1000 // occasional heavy hitter
			}
			bws[fmt.Sprintf("10.%d.%d.0/24", rng.Intn(40), rng.Intn(40))] = bw
		}
		snaps[i] = sketchSnap(t, bws)
	}
	for _, k := range []int{1, 2, 7, 64} {
		mgRef, err := NewMisraGries(k)
		if err != nil {
			t.Fatal(err)
		}
		ssRef, err := NewSpaceSaving(k)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := NewMisraGriesClassifier(k)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewSpaceSavingClassifier(k)
		if err != nil {
			t.Fatal(err)
		}
		for i, snap := range snaps {
			for _, c := range []struct {
				name string
				cls  *SketchClassifier
				ref  hhSketch
			}{{"misragries", mg, mgRef}, {"spacesaving", ss, ssRef}} {
				got := c.cls.Classify(snap, 0).Indices
				want := referenceVerdict(c.ref, snap, 1/float64(k+1))
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d interval %d %s: columnar %v vs map sketch %v", k, i, c.name, got, want)
				}
			}
		}
	}
}

// TestSketchClassifierSteadyStateAllocs pins the columnar sketch update
// loop at zero allocations per interval once the per-flow columns and
// the verdict scratch have reached capacity.
func TestSketchClassifierSteadyStateAllocs(t *testing.T) {
	bws := make(map[string]float64, 200)
	for i := 0; i < 200; i++ {
		bws[fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)] = float64(1 + i*i%997)
	}
	snap := sketchSnap(t, bws)
	for name, mk := range map[string]func() (*SketchClassifier, error){
		"misragries":  func() (*SketchClassifier, error) { return NewMisraGriesClassifier(16) },
		"spacesaving": func() (*SketchClassifier, error) { return NewSpaceSavingClassifier(16) },
	} {
		cls, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		cls.Classify(snap, 0) // warm the columns
		if avg := testing.AllocsPerRun(50, func() { cls.Classify(snap, 0) }); avg != 0 {
			t.Errorf("%s: warm Classify averages %v allocs/interval, want 0", name, avg)
		}
	}
}

func TestSketchClassifierValidation(t *testing.T) {
	if _, err := NewMisraGriesClassifier(0); err == nil {
		t.Error("misra-gries k=0 accepted")
	}
	if _, err := NewSpaceSavingClassifier(0); err == nil {
		t.Error("space-saving k=0 accepted")
	}
}
