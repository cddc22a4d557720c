package engine

import (
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/scheme"
)

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
		{"load+latent:window=24", 1, 1},
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
	a.MinFlows, b.MinFlows = 1, -1
	got, err := (&MultiLinkEngine{}).RunMatrix(links, []*scheme.Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "l/load+latent@alpha=0.25@minflows=1" || got[1].ID != "l/load+latent@alpha=0.75@minflows=-1" {
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
	out, err := (&MultiLinkEngine{}).RunMatrix(append(links, MatrixLink{ID: "none"}), []*scheme.Spec{scheme.MustParse("load")})
	if err != nil || len(out) != 2 || out[0].Err != nil || out[1].Err == nil {
		t.Errorf("link without a series: %+v, %v; want its cell to fail alone", out, err)
	}
	// Duplicate specs collide on cell IDs and must be rejected
	// structurally, not raced.
	dup := []*scheme.Spec{scheme.MustParse("load+single"), scheme.MustParse("load+single")}
	if _, err := (&MultiLinkEngine{}).RunMatrix(links, dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate specs: err = %v, want duplicate-ID error", err)
	}
}
