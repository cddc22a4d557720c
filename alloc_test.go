package repro

// Steady-state allocation pins for the per-interval classify path.
// PR 7 moved its remaining per-step allocations into reusable storage:
// the pipeline's arena-backed elephant sets, the snapshot's cached
// sorted bandwidth column, and the columnar sketch counters all
// amortize across intervals. These pins keep that property from
// regressing silently — testing.AllocsPerRun truncates the average, so
// a sub-1 amortized rate (the arena growing a fresh chunk every several
// intervals) passes while a genuine per-interval allocation fails.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scheme"
)

// TestPipelineStepSteadyStateAllocs pins the batch Snapshot+Step loop —
// the inner loop of every figure harness — at zero amortized
// allocations per interval once the pipeline and snapshot are warm, for
// both of the paper's classifiers.
func TestPipelineStepSteadyStateAllocs(t *testing.T) {
	cfg := experiments.SmallConfig()
	cfg.Intervals = 48
	cfg.Flows = 1200
	cfg.Routes = 3000
	ls, err := experiments.BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"load+latent", "load+single"} {
		cc, err := scheme.MustParse(spec).Config()
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := core.NewPipeline(cc)
		if err != nil {
			t.Fatal(err)
		}
		snap := core.NewFlowSnapshot(0)
		n := ls.West.Intervals
		step := func(i int) {
			snap = ls.West.Snapshot(i%n, snap)
			if _, err := pipe.Step(snap); err != nil {
				t.Fatal(err)
			}
		}
		// Warm: two full passes grow the flow table, the classifier
		// columns, the sorted-column buffer and the first arena chunks to
		// capacity.
		for i := 0; i < 2*n; i++ {
			step(i)
		}
		i := 2 * n
		if avg := testing.AllocsPerRun(3*n, func() { step(i); i++ }); avg != 0 {
			t.Errorf("%s: warm Snapshot+Step averages %v allocs/interval, want 0", spec, avg)
		}
	}
}

// TestAestDetectSteadyStateAllocs pins the aest detector's warm-path
// allocation rate at zero: after the first call sizes the detector's
// scratch arena, repeated DetectThreshold calls on interval-sized
// columns — each interval's bandwidths with the snapshot's sorted view,
// exactly what Pipeline.Step passes — must run entirely on reused
// storage.
func TestAestDetectSteadyStateAllocs(t *testing.T) {
	cfg := experiments.SmallConfig()
	cfg.Intervals = 8
	cfg.Flows = 1200
	cfg.Routes = 3000
	ls, err := experiments.BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewAestDetector()
	n := ls.West.Intervals
	snaps := make([]*core.FlowSnapshot, n)
	for i := range snaps {
		snaps[i] = ls.West.Snapshot(i, nil)
		snaps[i].SortedBandwidths() // the snapshot's sort, outside the pin
	}
	step := func(i int) {
		s := snaps[i%n]
		if _, err := det.DetectThreshold(s.Bandwidths(), s.SortedBandwidths()); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: one pass over every column sizes the scratch arena to the
	// largest interval.
	for i := 0; i < n; i++ {
		step(i)
	}
	i := n
	avg := testing.AllocsPerRun(4*n, func() { step(i); i++ })
	if avg != 0 {
		t.Errorf("warm DetectThreshold averages %v allocs/call, want 0", avg)
	}
}

// TestRunMatrixSharedWindowAllocs pins sum-once in bytes: latent-heat
// cells of one RunMatrix group that agree on the window read one ring of
// per-flow bandwidths, so a further such cell costs its pipeline, table
// and results but no ring — where a cell that cannot share (its window
// differs from every other cell's) brings its own. Measured as the
// marginal allocation of cells three to six of an alpha sweep, sharing
// against not sharing.
func TestRunMatrixSharedWindowAllocs(t *testing.T) {
	cfg := experiments.SmallConfig()
	cfg.Intervals = 48
	cfg.Flows = 1200
	cfg.Routes = 3000
	ls, err := experiments.BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := []engine.MatrixLink{{ID: "west", Series: ls.West}}
	// A sweep's cell i runs latent heat over window w(i).
	sweep := func(w func(i int) int, n int) []*scheme.Spec {
		specs := make([]*scheme.Spec, n)
		for i := range specs {
			specs[i] = scheme.MustParse(fmt.Sprintf("load+latent:window=%d", w(i)))
			specs[i].Alpha = 0.1 + 0.1*float64(i)
		}
		return specs
	}
	eng := engine.MultiLinkEngine{Workers: 1}
	allocated := func(specs []*scheme.Spec) uint64 {
		best := ^uint64(0)
		for rep := 0; rep < 4; rep++ { // the first run also seals and indexes
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := eng.RunMatrix(links, specs)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			for _, lr := range out {
				if lr.Err != nil {
					t.Fatal(lr.Err)
				}
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const window = 12
	marginal := func(w func(i int) int) uint64 {
		return (allocated(sweep(w, 6)) - allocated(sweep(w, 2))) / 4
	}
	shared := marginal(func(int) int { return window })
	owning := marginal(func(i int) int { return window + i }) // no two alike
	ring := uint64(window * ls.West.NumFlows() * 8)
	t.Logf("a further latent cell allocates %d B sharing a window, %d B owning one; a ring is %d B", shared, owning, ring)
	if shared+ring*9/10 > owning {
		t.Errorf("a further latent cell allocates %d B sharing a window and %d B owning one: less than the %d B ring apart", shared, owning, ring)
	}
}
