package engine

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/scheme"
)

// registrySpecs builds the full detector×classifier cross-product from
// the registry's runnable examples — every registered component, with
// required parameters filled in.
func registrySpecs(t testing.TB) []*scheme.Spec {
	var specs []*scheme.Spec
	for _, det := range scheme.DetectorExamples() {
		for _, cls := range scheme.ClassifierExamples() {
			sp, err := scheme.Parse(det + "+" + cls)
			if err != nil {
				t.Fatalf("registry example %q+%q does not parse: %v", det, cls, err)
			}
			specs = append(specs, sp)
		}
	}
	return specs
}

// TestRunMatrixPrepassEquivalence is the registry-wide cached-vs-inline
// pin: every detector×classifier spec in the registry runs over
// randomized multi-link series through both the prepassed RunMatrix and
// the perCell oracle (Run always detects inline), across worker counts,
// asserting byte-identical Results. Run under -race this also exercises the
// prepass's pool handoffs (sorted columns and threshold columns built
// on workers, consumed by classify workers).
func TestRunMatrixPrepassEquivalence(t *testing.T) {
	links := []MatrixLink{
		{ID: "west", Series: synthSeries(3, 400, 30)},
		{ID: "east", Series: synthSeries(4, 250, 30)},
		{ID: "south", Series: synthSeries(5, 60, 30)},
	}
	specs := registrySpecs(t)
	want := perCell(t, 1, links, specs)
	for _, workers := range []int{1, 2, 4, 8} {
		e := &MultiLinkEngine{Workers: workers}
		got, err := e.RunMatrix(links, specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("workers=%d: result %d is %q, want %q", workers, i, got[i].ID, want[i].ID)
			}
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d: cell %q error mismatch: %v vs %v", workers, got[i].ID, got[i].Err, want[i].Err)
			}
			if !reflect.DeepEqual(got[i].Results, want[i].Results) {
				t.Fatalf("workers=%d: cell %q results diverged between prepass and inline detection", workers, got[i].ID)
			}
		}
	}
}

// TestPrepassThresholdCacheKeys is the cache-key regression test: specs
// sharing a detector config share one threshold column, and two
// detectors differing in a single parameter must not.
func TestPrepassThresholdCacheKeys(t *testing.T) {
	links := []MatrixLink{{ID: "link", Series: synthSeries(7, 300, 20)}}
	links[0].Series.Seal()
	specs := []*scheme.Spec{
		scheme.MustParse("load:beta=0.8+single"),
		scheme.MustParse("load:beta=0.8+latent"), // same detector, different classifier
		scheme.MustParse("load:beta=0.6+single"), // one param differs
		scheme.MustParse("aest+single"),
		scheme.MustParse("aest:fallback=0.9+single"), // one param differs
	}
	e := &MultiLinkEngine{Workers: 2}
	cols := e.prepassThresholds(links, specs)
	m := cols["link"]
	if m == nil {
		t.Fatal("no threshold columns for the link")
	}
	if len(m) != 4 {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		t.Fatalf("expected 4 distinct detector keys, got %d: %v", len(m), keys)
	}
	if specs[0].DetectorKey() != specs[1].DetectorKey() {
		t.Fatalf("same detector config rendered different keys: %q vs %q", specs[0].DetectorKey(), specs[1].DetectorKey())
	}
	if specs[0].DetectorKey() == specs[2].DetectorKey() {
		t.Fatalf("beta=0.8 and beta=0.6 share key %q", specs[0].DetectorKey())
	}
	if specs[3].DetectorKey() == specs[4].DetectorKey() {
		t.Fatalf("default and explicit fallback share key %q", specs[3].DetectorKey())
	}
	// The shared column must really differ between the two betas.
	c8, c6 := m[specs[0].DetectorKey()], m[specs[2].DetectorKey()]
	if c8 == nil || c6 == nil {
		t.Fatal("missing columns for load betas")
	}
	if reflect.DeepEqual(c8.theta, c6.theta) {
		t.Fatal("beta=0.8 and beta=0.6 produced identical threshold columns — cache key not separating configs")
	}
}

// TestPrepassCoversDetectionErrors: a column records per-interval
// detection errors, and the consuming cell fails with the identical
// wrapped error text the inline path produces.
func TestPrepassCoversDetectionErrors(t *testing.T) {
	// Interval 3 is left empty: constant-load errors on the empty
	// interval, which only the forced MinFlows below surfaces.
	s := agg.NewSeries(start, 5*time.Minute, 6)
	for f := 0; f < 40; f++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.9.%d.0/24", f))
		for t := 0; t < 6; t++ {
			if t == 3 {
				continue
			}
			s.SetBandwidth(p, t, 1e4*float64(f+1))
		}
	}
	links := []MatrixLink{{ID: "link", Series: s}}
	specs := []*scheme.Spec{{
		Detector:   scheme.Component{Name: "load"},
		Classifier: scheme.Component{Name: "single"},
		MinFlows:   -1, // force detection even on empty intervals
	}}
	want := perCell(t, 1, links, specs)
	cached, err := (&MultiLinkEngine{Workers: 1}).RunMatrix(links, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		we, ge := fmt.Sprint(want[i].Err), fmt.Sprint(cached[i].Err)
		if we != ge {
			t.Fatalf("cell %q: cached error %q != inline error %q", want[i].ID, ge, we)
		}
		if !reflect.DeepEqual(cached[i].Results, want[i].Results) {
			t.Fatalf("cell %q: results diverged", want[i].ID)
		}
	}
}
