package engine

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/agg"
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
