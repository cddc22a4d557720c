package repro

// Four benchmarks that each time one primitive of the classification
// path at a reduced-but-faithful scale: workload synthesis, one
// snapshot step, the multi-link engine, and a whole-link classification.
// The paper's figures and claims are computed by cmd/experiments over
// internal/experiments and asserted by that package's tests; the perf
// record is bench/.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scheme"
)

// benchConfig is the per-iteration scale: large enough for the paper's
// effects to show, small enough to iterate.
func benchConfig() experiments.LinksConfig {
	cfg := experiments.SmallConfig()
	cfg.Intervals = 168 // 14 hours of 5-minute slots
	cfg.Flows = 3000
	cfg.Routes = 8000
	return cfg
}

func buildLinks(b *testing.B) *experiments.LinkSet {
	b.Helper()
	ls, err := experiments.BuildLinks(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return ls
}

// BenchmarkWorkloadSynthesis measures the synthetic generator itself:
// one experiments.BuildLinks — table, two populations, two series
// generated side by side — at 8 000 routes × 3 000 flows × 168 intervals.
// bench/ reports the same call at paper scale as batch_matrix's setup_s,
// but as a median of seven builds with no allocation figures and, the
// benchmark being frozen for a PR that claims on it, at that one size;
// this is the one to run with -benchmem, -cpuprofile or -cpu 1,2 (what
// the second goroutine buys) while changing the generator or the
// Series write body.
func BenchmarkWorkloadSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BuildLinks(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotStep measures the columnar hot path end to end: emit
// one interval as a reused sorted FlowSnapshot and classify it. This is
// the successor of the map-snapshot path (built, sorted and torn down a
// map per interval); compare against BenchmarkClassifyInterval for the
// whole-run view.
func BenchmarkSnapshotStep(b *testing.B) {
	ls := buildLinks(b)
	cfg, err := scheme.MustParse("load+latent").Config()
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var snap *core.FlowSnapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = ls.West.Snapshot(i%ls.West.Intervals, snap)
		if _, err := pipe.Step(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snap.Len()), "flows/interval")
}

// BenchmarkMultiLinkEngine measures the concurrent multi-link engine on
// an 8-link backbone (the two evaluation links replicated under distinct
// seeds): the link is the unit of parallelism, one pipeline each.
func BenchmarkMultiLinkEngine(b *testing.B) {
	cfg := benchConfig()
	links := make([]engine.Link, 0, 8)
	for i := 0; i < 4; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		ls, err := experiments.BuildLinks(c)
		if err != nil {
			b.Fatal(err)
		}
		sp := scheme.MustParse("load+latent")
		links = append(links,
			engine.Link{ID: fmt.Sprintf("west-%d", i), Series: ls.West, Config: sp.Factory()},
			engine.Link{ID: fmt.Sprintf("east-%d", i), Series: ls.East, Config: sp.Factory()},
		)
	}
	eng := engine.MultiLinkEngine{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := eng.Run(links)
		if err != nil {
			b.Fatal(err)
		}
		for _, lr := range out {
			if lr.Err != nil {
				b.Fatal(lr.Err)
			}
		}
	}
	b.ReportMetric(float64(len(links)), "links/op")
}

// BenchmarkClassifyInterval measures the marginal cost of classifying
// one 3000-flow interval with the full pipeline (constant-load detector,
// EWMA, latent heat) — the quantity an online deployment cares about.
func BenchmarkClassifyInterval(b *testing.B) {
	ls := buildLinks(b)
	west, specs := ls.Links()[:1], []*scheme.Spec{experiments.PaperSpec()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Classify(west, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ls.West.Intervals), "intervals/op")
}
