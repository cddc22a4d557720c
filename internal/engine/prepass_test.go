package engine

import (
	"fmt"
	"reflect"
	"testing"

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

// gappedSeries is synthSeries with the listed intervals left without a
// single flow.
func gappedSeries(seed int64, flows, intervals int, empty ...int) *agg.Series {
	full := synthSeries(seed, flows, intervals)
	s := agg.NewSeries(start, full.Interval, intervals)
	for _, p := range full.Flows() {
		row, _ := full.Row(p)
	interval:
		for t, bw := range row {
			for _, e := range empty {
				if t == e {
					continue interval
				}
			}
			if bw > 0 {
				s.SetBandwidth(p, t, bw)
			}
		}
	}
	return s
}

// assertMatrixMatchesPerCell runs links×specs through the prepassed
// RunMatrix at several worker counts and through the perCell oracle
// (Run always detects inline), asserting the same cells in the same
// order with byte-identical Results and the same error text.
func assertMatrixMatchesPerCell(t *testing.T, links []MatrixLink, specs []*scheme.Spec) {
	t.Helper()
	want := perCell(t, 1, links, specs)
	for _, workers := range []int{1, 2, 8} {
		got, err := (&MultiLinkEngine{Workers: workers}).RunMatrix(links, specs)
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
			if ge, we := fmt.Sprint(got[i].Err), fmt.Sprint(want[i].Err); ge != we {
				t.Fatalf("workers=%d: cell %q: cached error %q != inline error %q", workers, got[i].ID, ge, we)
			}
			if !reflect.DeepEqual(got[i].Results, want[i].Results) {
				t.Fatalf("workers=%d: cell %q results diverged between prepass and inline detection", workers, got[i].ID)
			}
		}
	}
}

// TestRunMatrixPrepassEquivalence is the registry-wide cached-vs-inline
// pin: every detector×classifier spec in the registry runs over
// randomized multi-link series through both the prepassed RunMatrix and
// the perCell oracle, across worker counts. The links sit on the
// prepass's seams: interval counts that are not a multiple of the chunk
// (and one shorter than a chunk), intervals with no flows at a chunk's
// first, inner and the series' last position, and one series offered as
// two links. Run under -race this also exercises the prepass's pool
// handoffs (chunks of one link's columns filled on different workers,
// consumed by classify workers).
func TestRunMatrixPrepassEquivalence(t *testing.T) {
	shared := synthSeries(4, 250, 2*prepassChunk+5)
	links := []MatrixLink{
		{ID: "west", Series: gappedSeries(3, 400, 2*prepassChunk+5, 5, prepassChunk, 2*prepassChunk+4)},
		{ID: "east", Series: shared},
		{ID: "east-again", Series: shared},
		{ID: "south", Series: synthSeries(5, 60, prepassChunk-3)},
	}
	assertMatrixMatchesPerCell(t, links, registrySpecs(t))
}

// TestRunMatrixPrepassOneLinkSweep is the experiments package's sweep
// shape: one link, many specs sharing one detector config. The prepass
// computes a single column, and its parallelism is the link's chunks.
func TestRunMatrixPrepassOneLinkSweep(t *testing.T) {
	links := []MatrixLink{{ID: "link", Series: synthSeries(9, 300, 5*prepassChunk+1)}}
	var specs []*scheme.Spec
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, grammar := range []string{"aest+latent", "aest+latent:window=3", "aest+single"} {
			sp := scheme.MustParse(grammar)
			sp.Alpha = alpha
			specs = append(specs, sp)
		}
	}
	if cols := (&MultiLinkEngine{Workers: 8}).prepassThresholds(links, specs); len(cols["link"]) != 1 {
		t.Fatalf("sweep over one detector config built %d columns, want 1", len(cols["link"]))
	}
	assertMatrixMatchesPerCell(t, links, specs)
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
		scheme.MustParse("fixed:theta=1e5+single"),
		scheme.MustParse("fixed:theta=2e5+single"), // one param differs
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
		t.Fatalf("theta=1e5 and theta=2e5 share key %q", specs[3].DetectorKey())
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
// detection errors — from chunks of one link running on different
// workers at once — and the consuming cell fails with the identical
// wrapped error text the inline path produces.
func TestPrepassCoversDetectionErrors(t *testing.T) {
	// Constant-load errors on an interval without flows, which only the
	// forced MinFlows below surfaces. "early" has flows in its first
	// three intervals only, so every chunk of it starts recording errors
	// the moment it starts; "late" first fails in its third chunk.
	n := 3*prepassChunk + 2
	gaps := map[string][]int{"early": nil, "late": {2*prepassChunk + 1}}
	for t2 := 3; t2 < n; t2++ {
		gaps["early"] = append(gaps["early"], t2)
	}
	links := []MatrixLink{
		{ID: "early", Series: gappedSeries(1, 40, n, gaps["early"]...)},
		{ID: "late", Series: gappedSeries(2, 40, n, gaps["late"]...)},
	}
	sp := scheme.MustParse("load+single")
	sp.MinFlows = -1 // force detection even on empty intervals
	specs := []*scheme.Spec{sp}
	assertMatrixMatchesPerCell(t, links, specs)

	// Every failing interval is in the column, not just the one the
	// pipeline stops at, with the detector's own error.
	det, err := sp.BuildDetector()
	if err != nil {
		t.Fatal(err)
	}
	_, inline := det.DetectThreshold(nil, nil)
	if inline == nil {
		t.Fatal("constant-load accepted an empty interval")
	}
	// Repeated, so that under -race chunks of one link do get caught
	// recording their first errors at the same moment.
	var cols map[string]map[string]*thresholdColumn
	for rep := 0; rep < 300; rep++ {
		cols = (&MultiLinkEngine{Workers: 4}).prepassThresholds(links, specs)
	}
	for id, failing := range gaps {
		col := cols[id][sp.DetectorKey()]
		if col == nil {
			t.Fatalf("link %q: no column", id)
		}
		failed := 0
		for t2 := 0; t2 < n; t2++ {
			if _, err := col.RawThreshold(t2); err != nil {
				failed++
				if err.Error() != inline.Error() {
					t.Fatalf("link %q interval %d: column error %q, detector says %q", id, t2, err, inline)
				}
			}
		}
		if failed != len(failing) {
			t.Fatalf("link %q: %d failing intervals in the column, want %v", id, failed, failing)
		}
		for _, t2 := range failing {
			if _, err := col.RawThreshold(t2); err == nil {
				t.Fatalf("link %q: interval %d detected cleanly, want an error", id, t2)
			}
		}
	}
}
