package engine

import (
	"testing"

	"repro/internal/scheme"
)

// BenchmarkLivePipelineSaturation drives one heavy link — thousands of
// flows per interval — through the full live path: record queue,
// accumulate stage, double-buffered seal hand-off, classify stage. Read
// the Mrecords/s column.
func BenchmarkLivePipelineSaturation(b *testing.B) {
	s := synthSeries(7, 4096, 16)
	recs := seriesRecords(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		intervals := 0
		lp, err := NewLivePipeline(LiveLink{
			ID:       "saturation",
			Start:    start,
			Interval: s.Interval,
			Window:   4,
			Buffer:   4096,
			Config:   schemeConfig,
			OnResult: func(Sealed) error {
				intervals++
				return nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lp.SendBatch(recs); err != nil {
			b.Fatal(err)
		}
		if err := lp.Close(); err != nil {
			b.Fatal(err)
		}
		if intervals != s.Intervals {
			b.Fatalf("classified %d intervals, want %d", intervals, s.Intervals)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrecords/s")
}

// benchMatrix is the spec-sweep shape the experiments package runs: one
// link classified under several schemes. It is exactly the case the
// emit-once path exists for — S pipelines sharing each interval's
// emission and sorted bandwidth column instead of paying S emissions.
func benchMatrix() ([]MatrixLink, []*scheme.Spec) {
	links := []MatrixLink{{ID: "link", Series: synthSeries(3, 2000, 48)}}
	specs := []*scheme.Spec{
		scheme.MustParse("load+latent"),
		scheme.MustParse("load+single"),
		scheme.MustParse("aest+single"),
		scheme.MustParse("topk:k=100"),
		scheme.MustParse("misragries:k=100"),
		scheme.MustParse("spacesaving:k=100"),
	}
	return links, specs
}

// BenchmarkMatrixShared measures the emit-once RunMatrix execution on
// one worker: the scheme mix above, and the experiments package's alpha
// sweep — six load+latent cells differing only in alpha, so one detector
// column, one emission and one set of latent-heat window sums serve all
// six, and what remains per cell is its threshold ring and comparisons.
func BenchmarkMatrixShared(b *testing.B) {
	links, specs := benchMatrix()
	var sweep []*scheme.Spec
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9} {
		sp := scheme.MustParse("load+latent")
		sp.Alpha = alpha
		sweep = append(sweep, sp)
	}
	for _, bc := range []struct {
		name  string
		specs []*scheme.Spec
	}{{"schemes", specs}, {"alpha-sweep", sweep}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := MultiLinkEngine{Workers: 1}
			for i := 0; i < b.N; i++ {
				out, err := eng.RunMatrix(links, bc.specs)
				if err != nil {
					b.Fatal(err)
				}
				for _, lr := range out {
					if lr.Err != nil {
						b.Fatal(lr.Err)
					}
				}
			}
		})
	}
}

// BenchmarkDetectorPrepass measures the prepass alone: one pass over
// the link's intervals in chunks, each interval copied, sorted and run
// through every distinct detector config — the work RunMatrix hoists
// off the sequential classify pass.
func BenchmarkDetectorPrepass(b *testing.B) {
	links, specs := benchMatrix()
	eng := MultiLinkEngine{Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols := eng.prepassThresholds(links, specs)
		if cols["link"] == nil {
			b.Fatal("prepass produced no columns")
		}
	}
}
