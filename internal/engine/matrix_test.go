package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/scheme"
)

func matrixSpecs() []*scheme.Spec {
	specs := []*scheme.Spec{
		scheme.MustParse("load+latent:window=4"),
		scheme.MustParse("aest+single"),
		scheme.MustParse("topk:k=25"),
	}
	for _, sp := range specs {
		sp.MinFlows = 8
	}
	return specs
}

// TestRunMatrix pins the cross-product contract: one result per (link,
// spec) cell, IDs "link/spec" in sorted order, each byte-identical to a
// sequential single-link run of the same spec, for any worker count.
func TestRunMatrix(t *testing.T) {
	links := []MatrixLink{
		{ID: "west", Series: synthSeries(7, 200, 24)},
		{ID: "east", Series: synthSeries(8, 180, 24)},
	}
	specs := matrixSpecs()

	want := make(map[string][]core.Result)
	for _, l := range links {
		for _, sp := range specs {
			want[MatrixID(l.ID, sp)] = sequential(t, l.Series, sp.Factory())
		}
	}

	for _, workers := range []int{1, 4} {
		eng := MultiLinkEngine{Workers: workers}
		got, err := eng.RunMatrix(links, specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(links)*len(specs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(links)*len(specs))
		}
		for i, lr := range got {
			if i > 0 && got[i-1].ID >= lr.ID {
				t.Fatalf("results not sorted: %q before %q", got[i-1].ID, lr.ID)
			}
			if lr.Err != nil {
				t.Fatalf("cell %s: %v", lr.ID, lr.Err)
			}
			ref, ok := want[lr.ID]
			if !ok {
				t.Fatalf("unexpected cell ID %q", lr.ID)
			}
			if !reflect.DeepEqual(lr.Results, ref) {
				t.Fatalf("workers=%d: cell %s diverges from sequential run", workers, lr.ID)
			}
		}
	}
}

// perCell is RunMatrix's oracle: Run over the links×specs cross product
// — every cell its own task, emission pass and inline detection.
func perCell(t testing.TB, workers int, links []MatrixLink, specs []*scheme.Spec) []LinkResult {
	t.Helper()
	var work []Link
	for _, l := range links {
		for _, sp := range specs {
			work = append(work, Link{ID: MatrixID(l.ID, sp), Series: l.Series, Config: sp.Factory()})
		}
	}
	out, err := (&MultiLinkEngine{Workers: workers}).Run(work)
	if err != nil {
		t.Fatalf("workers=%d per-cell: %v", workers, err)
	}
	return out
}

// TestRunMatrixMatchesPerCell pins the emit-once execution against the
// cell-per-task oracle, cell for cell: same IDs, same order,
// byte-identical results, same error text — including a cell that fails
// mid-run (MinFlows impossibly high → detector error on interval 0)
// without disturbing its neighbours, and a worker count that forces the
// spec-group split (1 link, many workers → one group per spec).
func TestRunMatrixMatchesPerCell(t *testing.T) {
	links := []MatrixLink{
		{ID: "west", Series: synthSeries(7, 200, 24)},
		{ID: "east", Series: synthSeries(8, 180, 24)},
	}
	broken := scheme.MustParse("load+single")
	broken.MinFlows = 1 << 20
	specs := append(matrixSpecs(), broken)

	for _, workers := range []int{1, 2, 8} {
		eng := MultiLinkEngine{Workers: workers}
		got, err := eng.RunMatrix(links, specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ref := perCell(t, workers, links, specs)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d cells vs %d per-cell", workers, len(got), len(ref))
		}
		brokenCells, healthy := 0, 0
		for i := range ref {
			if got[i].ID != ref[i].ID {
				t.Fatalf("workers=%d cell %d: ID %q vs per-cell %q", workers, i, got[i].ID, ref[i].ID)
			}
			if fmt.Sprint(got[i].Err) != fmt.Sprint(ref[i].Err) {
				t.Fatalf("workers=%d cell %s: err %q vs per-cell %q", workers, got[i].ID, fmt.Sprint(got[i].Err), fmt.Sprint(ref[i].Err))
			}
			if !reflect.DeepEqual(got[i].Results, ref[i].Results) {
				t.Fatalf("workers=%d cell %s: results diverge from per-cell path", workers, got[i].ID)
			}
			if got[i].Err != nil {
				brokenCells++
			} else {
				healthy++
			}
		}
		if brokenCells != len(links) {
			t.Fatalf("workers=%d: %d failed cells, want %d (one per link for the broken spec)", workers, brokenCells, len(links))
		}
		if healthy != len(links)*(len(specs)-1) {
			t.Fatalf("workers=%d: %d healthy cells, want %d", workers, healthy, len(links)*(len(specs)-1))
		}
	}
}

// TestSpecGroups pins the work-splitting rule: enough links saturate
// the workers with full sharing (one group); fewer links than workers
// split the spec list, never beyond one spec per group.
func TestSpecGroups(t *testing.T) {
	cases := []struct {
		workers, links, specs, want int
	}{
		{4, 8, 5, 1}, // links saturate the pool: full sharing
		{4, 4, 5, 1},
		{4, 2, 5, 2}, // 2 links × 2 groups covers 4 workers
		{8, 1, 5, 5}, // capped at one spec per group
		{1, 1, 5, 1}, // single worker: nothing to split for
	}
	for _, c := range cases {
		eng := MultiLinkEngine{Workers: c.workers}
		if got := eng.specGroups(c.links, c.specs); got != c.want {
			t.Errorf("specGroups(workers=%d, links=%d, specs=%d) = %d, want %d",
				c.workers, c.links, c.specs, got, c.want)
		}
		groups := splitSpecs(make([]*scheme.Spec, c.specs), eng.specGroups(c.links, c.specs))
		total := 0
		for _, g := range groups {
			if len(g) == 0 {
				t.Errorf("workers=%d links=%d: empty spec group", c.workers, c.links)
			}
			total += len(g)
		}
		if total != c.specs {
			t.Errorf("workers=%d links=%d: groups cover %d specs, want %d", c.workers, c.links, total, c.specs)
		}
	}
}

// TestRunMatrixStreamingMatchesBatch is the registry equivalence
// contract at engine level: streaming every (link, spec) cell over a
// record replay of a series — window by StreamWindow, ID by MatrixID —
// must be byte-identical to the batch matrix over the collected series,
// per cell.
func TestRunMatrixStreamingMatchesBatch(t *testing.T) {
	const intervals = 24
	recs := seriesRecords(synthSeries(9, 150, intervals))
	s := agg.NewSeries(start, 5*time.Minute, intervals)
	if _, err := agg.Collect(&sliceSource{recs: recs}, s); err != nil {
		t.Fatal(err)
	}
	specs := matrixSpecs()

	eng := MultiLinkEngine{Workers: 4}
	batch, err := eng.RunMatrix([]MatrixLink{{ID: "live", Series: s}}, specs)
	if err != nil {
		t.Fatal(err)
	}
	var cells []StreamLink
	for _, sp := range specs {
		cells = append(cells, StreamLink{
			ID:       MatrixID("live", sp),
			Source:   &sliceSource{recs: recs},
			Start:    start,
			Interval: 5 * time.Minute,
			Window:   StreamWindow(sp, 0),
			Config:   sp.Factory(),
		})
	}
	stream, err := eng.RunStreaming(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != len(batch) {
		t.Fatalf("%d stream cells vs %d batch", len(stream), len(batch))
	}
	for i := range batch {
		if batch[i].Err != nil || stream[i].Err != nil {
			t.Fatalf("cell %s: batch err %v, stream err %v", batch[i].ID, batch[i].Err, stream[i].Err)
		}
		if batch[i].ID != stream[i].ID {
			t.Fatalf("cell order diverges: %q vs %q", batch[i].ID, stream[i].ID)
		}
		if !reflect.DeepEqual(batch[i].Results, stream[i].Results) {
			t.Fatalf("cell %s: streaming diverges from batch", batch[i].ID)
		}
	}
}

// TestStreamWindow pins the window-derivation rule: explicit beats
// derived; latent windows above the default stretch the accumulator;
// everything else floors at agg.DefaultStreamWindow.
func TestStreamWindow(t *testing.T) {
	cases := []struct {
		spec     string
		explicit int
		want     int
	}{
		{"load+single", 0, agg.DefaultStreamWindow},
		{"load+latent", 0, agg.DefaultStreamWindow}, // default latent window == default stream window
		{"load+latent:window=24", 0, 24},
		{"load+latent:window=4", 0, agg.DefaultStreamWindow},
		{"load+latent:window=24", 6, 6},
		{"topk:k=5", 0, agg.DefaultStreamWindow},
	}
	for _, c := range cases {
		if got := StreamWindow(scheme.MustParse(c.spec), c.explicit); got != c.want {
			t.Errorf("StreamWindow(%q, %d) = %d, want %d", c.spec, c.explicit, got, c.want)
		}
	}
}

// TestRunMatrixPipelineLevelSweep pins that specs differing only in
// pipeline-level fields (Alpha, MinFlows — outside the spec grammar)
// get distinct cell IDs and run as independent cells.
func TestRunMatrixPipelineLevelSweep(t *testing.T) {
	links := []MatrixLink{{ID: "l", Series: synthSeries(7, 200, 12)}}
	a, b := scheme.MustParse("load+latent"), scheme.MustParse("load+latent")
	a.Alpha, b.Alpha = 0.25, 0.75
	a.MinFlows, b.MinFlows = 8, 8
	got, err := (&MultiLinkEngine{}).RunMatrix(links, []*scheme.Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID == got[1].ID {
		t.Fatalf("alpha sweep cells = %+v", []string{got[0].ID, got[1].ID})
	}
	for _, lr := range got {
		if lr.Err != nil {
			t.Fatalf("cell %s: %v", lr.ID, lr.Err)
		}
	}
	// Different alphas must actually produce different smoothed
	// thresholds after the first interval.
	if got[0].Results[2].Threshold == got[1].Results[2].Threshold {
		t.Error("alpha sweep cells produced identical thresholds")
	}
}

func TestRunMatrixValidation(t *testing.T) {
	links := []MatrixLink{{ID: "l", Series: synthSeries(7, 50, 4)}}
	if _, err := (&MultiLinkEngine{}).RunMatrix(links, nil); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := (&MultiLinkEngine{}).RunMatrix(links, []*scheme.Spec{nil}); err == nil {
		t.Error("nil spec accepted")
	}
	// Duplicate specs collide on cell IDs and must be rejected
	// structurally, not raced.
	dup := []*scheme.Spec{scheme.MustParse("load+single"), scheme.MustParse("load+single")}
	_, err := (&MultiLinkEngine{}).RunMatrix(links, dup)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate specs: err = %v, want duplicate-ID error", err)
	}
}
