package engine

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/scheme"
)

// churnSeries is a link whose flows come and go: every flow alternates
// active and idle phases of 1–20 intervals, so with the short windows
// the tests below use flows return inside the latent-heat window,
// outside it, and after their state was evicted — and heavy flows that
// fall idle stay elephants on accumulated heat for a while. Rows are
// created in no prefix order.
func churnSeries(seed int64, flows, intervals int) *agg.Series {
	rng := rand.New(rand.NewSource(seed))
	s := agg.NewSeries(start, 5*time.Minute, intervals)
	for _, f := range rng.Perm(flows) {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", f/256, f%256))
		heavy := f%10 == 0
		active := rng.Intn(2) == 0
		for t := 0; t < intervals; active = !active {
			for n := 1 + rng.Intn(20); n > 0 && t < intervals; n, t = n-1, t+1 {
				if !active {
					continue
				}
				bw := 1e3 * math.Exp(rng.NormFloat64())
				if heavy {
					bw = 1e5 * math.Exp(rng.NormFloat64()*0.3)
				}
				s.SetBandwidth(p, t, bw)
			}
		}
	}
	return s
}

func alphaSpec(grammar string, alpha float64) *scheme.Spec {
	sp := scheme.MustParse(grammar)
	sp.Alpha = alpha
	return sp
}

// TestRunMatrixSharedWindows: groups whose latent-heat cells read one
// set of window sums stay byte-identical to the perCell oracle, whose
// every cell owns its window. The spec list mixes what shares — one
// window across two detectors and across alphas, a second window in the
// same group, a window short enough that flows are evicted in numbers —
// with what must not: a single-feature cell.
// Worker counts 1, 2 and 8 cut the list into one, two and four groups a
// link, so the cells that end up sharing differ from run to run.
func TestRunMatrixSharedWindows(t *testing.T) {
	links := []MatrixLink{
		{ID: "west", Series: churnSeries(1, 300, 90)},
		{ID: "east", Series: churnSeries(2, 200, 61)},
	}
	specs := []*scheme.Spec{
		scheme.MustParse("load+latent:window=4"),
		scheme.MustParse("aest+latent:window=4"),
		alphaSpec("load+latent:window=4", 0.2),
		alphaSpec("load+latent:window=4", 0.8),
		scheme.MustParse("load+latent:window=6"),
		scheme.MustParse("aest+latent:window=6"),
		scheme.MustParse("load+single"),
		scheme.MustParse("load+latent:window=2"),
		scheme.MustParse("aest+latent:window=2"),
		scheme.MustParse("load+latent"),
		scheme.MustParse("aest+latent"),
	}
	assertMatrixMatchesPerCell(t, links, specs)
}

// TestRunMatrixSharedWindowSurvivesFailedCell: the first latent-heat
// cell of a group fails midway (TestPrepassCoversDetectionErrors'
// shape: detection forced on an interval without flows). The loop, not
// that cell, advances the shared sums, so its siblings finish, and
// byte-identical to cells that never shared anything.
func TestRunMatrixSharedWindowSurvivesFailedCell(t *testing.T) {
	const n, gap = 50, 23
	full := churnSeries(3, 250, n)
	s := agg.NewSeries(start, full.Interval, n)
	for _, p := range full.Flows() {
		row, _ := full.Row(p)
		for ti, bw := range row {
			if bw > 0 && ti != gap {
				s.SetBandwidth(p, ti, bw)
			}
		}
	}
	links := []MatrixLink{{ID: "link", Series: s}}
	failing := scheme.MustParse("load+latent:window=4")
	failing.MinFlows = -1 // detect even on the empty interval: constant-load errors there
	specs := []*scheme.Spec{
		failing,
		scheme.MustParse("aest+latent:window=4"),
		alphaSpec("load+latent:window=4", 0.3),
		scheme.MustParse("load+single"),
	}
	assertMatrixMatchesPerCell(t, links, specs)

	got, err := (&MultiLinkEngine{Workers: 1}).RunMatrix(links, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range got {
		if failed := lr.ID == MatrixID("link", failing); failed != (lr.Err != nil) {
			t.Errorf("cell %s: err = %v", lr.ID, lr.Err)
		} else if !failed && len(lr.Results) != n {
			t.Errorf("cell %s: %d intervals, want %d", lr.ID, len(lr.Results), n)
		}
	}
}

// TestSharedWindowAnswersLikeOwning drives the series loop over cells
// whose classifiers the test holds, and asks them afterwards what an
// owning classifier is asked: LatentHeat and TrackedFlows answer the
// same attached — two cells sharing through one task — and owning — the
// same two configurations as tasks of their own.
func TestSharedWindowAnswersLikeOwning(t *testing.T) {
	s := churnSeries(4, 200, 70)
	run := func(together bool) []*core.LatentHeatClassifier {
		lhs := make([]*core.LatentHeatClassifier, 2)
		out := make([]LinkResult, 2)
		cells := make([]cell, 2)
		for i, beta := range []float64{0.8, 0.5} {
			lh, err := core.NewLatentHeatClassifier(3)
			if err != nil {
				t.Fatal(err)
			}
			lhs[i] = lh
			out[i].ID = fmt.Sprint("cell", i)
			cells[i] = cell{out: &out[i], config: func() (core.Config, error) {
				det, err := core.NewConstantLoadDetector(beta)
				return core.Config{Detector: det, Alpha: 0.5, Classifier: lh, MinFlows: 8}, err
			}}
		}
		snap := core.NewFlowSnapshot(0)
		if together {
			seriesTask{series: s, cells: cells}.run(snap, nil)
		} else {
			seriesTask{series: s, cells: cells[:1]}.run(snap, nil)
			seriesTask{series: s, cells: cells[1:]}.run(snap, nil)
		}
		for i := range out {
			if out[i].Err != nil || len(out[i].Results) != s.Intervals {
				t.Fatalf("together=%v cell %d: %d results, err %v", together, i, len(out[i].Results), out[i].Err)
			}
		}
		return lhs
	}
	attached, owning := run(true), run(false)
	// The comparison is only one if the first pair shared and the second
	// did not; nothing a classifier exports says so.
	window := func(lh *core.LatentHeatClassifier) uintptr {
		return reflect.ValueOf(lh).Elem().FieldByName("win").Pointer()
	}
	if window(attached[0]) != window(attached[1]) {
		t.Fatal("two cells of one task did not share a window")
	}
	if window(owning[0]) == window(owning[1]) {
		t.Fatal("cells run as tasks of their own share a window")
	}
	evicted := 0
	for i := range attached {
		if g, w := attached[i].TrackedFlows(), owning[i].TrackedFlows(); g != w {
			t.Errorf("classifier %d: TrackedFlows %d attached, %d owning", i, g, w)
		}
		for _, p := range s.Flows() {
			glh, gok := attached[i].LatentHeat(p)
			wlh, wok := owning[i].LatentHeat(p)
			if gok != wok || glh != wlh {
				t.Fatalf("classifier %d: LatentHeat(%v) = %v,%v attached, %v,%v owning", i, p, glh, gok, wlh, wok)
			}
			if !gok {
				evicted++
			}
		}
	}
	if evicted == 0 {
		t.Error("no flow was evicted by the end of the run; the comparison never saw the eviction rule")
	}
}

// TestLatentEvictionBoundary pins the one eviction rule end to end: a
// flow idle for 4W−1 intervals is still tracked, one idle for 4W is
// gone — owning its window or sharing one, under every registered
// detector, whatever thresholds each yields.
func TestLatentEvictionBoundary(t *testing.T) {
	const w, active = 3, 5
	leaver := netip.MustParsePrefix("10.9.9.0/24")
	series := func(idle int) *agg.Series {
		n := active + idle
		s := agg.NewSeries(start, 5*time.Minute, n)
		rng := rand.New(rand.NewSource(1))
		for f := 0; f < 40; f++ { // always on, so every interval detects
			p := netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", f))
			for ti := 0; ti < n; ti++ {
				s.SetBandwidth(p, ti, 1e3*math.Exp(2*rng.NormFloat64()))
			}
		}
		for ti := 0; ti < active; ti++ {
			s.SetBandwidth(leaver, ti, 1e6)
		}
		return s
	}
	for _, det := range scheme.DetectorExamples() {
		sp := scheme.MustParse(fmt.Sprintf("%s+latent:window=%d", det, w))
		for _, shared := range []bool{false, true} {
			for _, idle := range []int{4*w - 1, 4 * w} {
				s := series(idle)
				lhs := make([]*core.LatentHeatClassifier, 2)
				out := make([]LinkResult, 2)
				cells := make([]cell, 2)
				for i := range cells {
					out[i].ID = fmt.Sprint("cell", i)
					cells[i] = cell{out: &out[i], config: func() (core.Config, error) {
						cfg, err := sp.Config()
						if err == nil {
							lhs[i] = cfg.Classifier.(*core.LatentHeatClassifier)
						}
						return cfg, err
					}}
				}
				snap := core.NewFlowSnapshot(0)
				if shared {
					seriesTask{series: s, cells: cells}.run(snap, nil)
				} else {
					seriesTask{series: s, cells: cells[:1]}.run(snap, nil)
					seriesTask{series: s, cells: cells[1:]}.run(snap, nil)
				}
				name := fmt.Sprintf("%s shared=%v idle=%d", sp, shared, idle)
				if (reflect.ValueOf(lhs[0]).Elem().FieldByName("win").Pointer() ==
					reflect.ValueOf(lhs[1]).Elem().FieldByName("win").Pointer()) != shared {
					t.Fatalf("%s: the two cells' windows are not as set up", name)
				}
				want, flows := idle < 4*w, 40
				if want {
					flows++
				}
				for i, lh := range lhs {
					if out[i].Err != nil {
						t.Fatalf("%s: cell %d: %v", name, i, out[i].Err)
					}
					if _, tracked := lh.LatentHeat(leaver); tracked != want || lh.TrackedFlows() != flows {
						t.Errorf("%s: cell %d tracks the idle flow: %v (%d flows), want %v (%d)", name, i, tracked, lh.TrackedFlows(), want, flows)
					}
				}
			}
		}
	}
}
