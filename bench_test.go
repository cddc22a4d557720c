package repro

// One benchmark per figure panel, quantitative claim and ablation of the
// paper. Each benchmark regenerates its artifact at a
// reduced-but-faithful scale per iteration and reports the headline
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness. cmd/experiments runs the same
// code at full paper scale with charts.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
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

// BenchmarkFig1aElephantCounts regenerates Figure 1(a): the number of
// elephants per interval for {aest, 0.8-constant-load} × {west, east}
// with the latent-heat metric on.
func BenchmarkFig1aElephantCounts(b *testing.B) {
	ls := buildLinks(b)
	var meanWest, meanEast float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunFigure1(ls, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			m := analysis.MeanInt(analysis.CountSeries(r.Results))
			if r.Link == "west" {
				meanWest = m
			} else {
				meanEast = m
			}
		}
	}
	b.ReportMetric(meanWest, "elephants/west")
	b.ReportMetric(meanEast, "elephants/east")
}

// BenchmarkFig1bTrafficFraction regenerates Figure 1(b): the fraction of
// total traffic apportioned to elephants (paper: ≈0.6, less fluctuation
// than the counts).
func BenchmarkFig1bTrafficFraction(b *testing.B) {
	ls := buildLinks(b)
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunFigure1(ls, true)
		if err != nil {
			b.Fatal(err)
		}
		frac = 0
		for _, r := range runs {
			frac += analysis.MeanFloat(analysis.FractionSeries(r.Results)) / float64(len(runs))
		}
	}
	b.ReportMetric(frac, "loadfrac")
}

// BenchmarkFig1cHoldingTimes regenerates Figure 1(c): the busy-period
// histogram of average holding times in the elephant state (paper: mean
// ≈ 2 h with latent heat; ≈ 50 one-interval flows).
func BenchmarkFig1cHoldingTimes(b *testing.B) {
	ls := buildLinks(b)
	var holding, oneSlot float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunFigure1(ls, true)
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.Fig1c(runs, experiments.Fig1cConfig{})
		if err != nil {
			b.Fatal(err)
		}
		holding, oneSlot = 0, 0
		for _, r := range res {
			holding += r.Stats.MeanHolding / float64(len(res))
			oneSlot += float64(r.Stats.SingleIntervalFlows) / float64(len(res))
		}
	}
	b.ReportMetric(holding, "holding-slots")
	b.ReportMetric(oneSlot, "1slot-flows")
}

// BenchmarkSingleFeatureVolatility regenerates the Section II claim:
// single-feature elephants hold their state for only 20–40 minutes and
// >1000 flows per link are elephants for a single interval.
func BenchmarkSingleFeatureVolatility(b *testing.B) {
	ls := buildLinks(b)
	var holdingMin, oneSlot float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SingleFeatureVolatility(ls)
		if err != nil {
			b.Fatal(err)
		}
		holdingMin, oneSlot = 0, 0
		for _, r := range rows {
			holdingMin += r.MeanHolding.Minutes() / float64(len(rows))
			oneSlot += float64(r.SingleIntervalFlows) / float64(len(rows))
		}
	}
	b.ReportMetric(holdingMin, "holding-min")
	b.ReportMetric(oneSlot, "1slot-flows")
}

// BenchmarkTwoFeatureStability regenerates the Section III claim: with
// latent heat the average holding time rises to ≈2 h and one-interval
// elephants collapse to ≈50.
func BenchmarkTwoFeatureStability(b *testing.B) {
	ls := buildLinks(b)
	var holdingMin, oneSlot, elephants float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TwoFeatureStability(ls)
		if err != nil {
			b.Fatal(err)
		}
		holdingMin, oneSlot, elephants = 0, 0, 0
		for _, r := range rows {
			holdingMin += r.MeanHolding.Minutes() / float64(len(rows))
			oneSlot += float64(r.SingleIntervalFlows) / float64(len(rows))
			elephants += r.MeanElephants / float64(len(rows))
		}
	}
	b.ReportMetric(holdingMin, "holding-min")
	b.ReportMetric(oneSlot, "1slot-flows")
	b.ReportMetric(elephants, "elephants")
}

// BenchmarkPrefixLengthAnalysis regenerates the Section III prefix-length
// observation: elephants span a wide range of prefix lengths and almost
// no /8 network qualifies.
func BenchmarkPrefixLengthAnalysis(b *testing.B) {
	ls := buildLinks(b)
	var span, slash8 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PrefixLength(ls)
		if err != nil {
			b.Fatal(err)
		}
		span, slash8 = 0, 0
		for _, r := range rows {
			span += float64(r.Stats.MaxLen-r.Stats.MinLen) / float64(len(rows))
			slash8 += float64(r.Stats.ElephantSlash8) / float64(len(rows))
		}
	}
	b.ReportMetric(span, "len-span")
	b.ReportMetric(slash8, "slash8-elephants")
}

// BenchmarkIntervalSensitivity regenerates the Section II robustness
// check: similar results at 1-, 5- and 10-minute measurement intervals.
func BenchmarkIntervalSensitivity(b *testing.B) {
	cfg := benchConfig()
	cfg.Intervals = 72 // 6 hours: the 1-minute regeneration is 5x larger
	sp := scheme.MustParse("load+latent")
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.IntervalSensitivity(cfg,
			[]time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute},
			sp)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := rows[0].MeanLoadFraction, rows[0].MeanLoadFraction
		for _, r := range rows[1:] {
			if r.MeanLoadFraction < lo {
				lo = r.MeanLoadFraction
			}
			if r.MeanLoadFraction > hi {
				hi = r.MeanLoadFraction
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "loadfrac-spread")
}

// BenchmarkAblationAlpha sweeps the EWMA weight α (paper: 0.5 is
// "sufficiently smooth"). The reported metric is the threshold
// coefficient of variation at α=0.5.
func BenchmarkAblationAlpha(b *testing.B) {
	ls := buildLinks(b)
	var cv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationAlpha(ls, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Value == 0.5 {
				cv = r.ThresholdCV
			}
		}
	}
	b.ReportMetric(cv, "thetaCV@0.5")
}

// BenchmarkAblationLatentWindow sweeps the latent-heat window (paper:
// 12 slots = 1 hour), reporting the holding-time gain of W=12 over W=1.
func BenchmarkAblationLatentWindow(b *testing.B) {
	ls := buildLinks(b)
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationWindow(ls, []int{1, 12})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].MeanHoldingIntervals > 0 {
			gain = rows[1].MeanHoldingIntervals / rows[0].MeanHoldingIntervals
		}
	}
	b.ReportMetric(gain, "holding-gain-w12/w1")
}

// BenchmarkAblationBeta sweeps the constant-load target β (paper: 0.8),
// reporting the elephant count spread across the sweep.
func BenchmarkAblationBeta(b *testing.B) {
	ls := buildLinks(b)
	var lo, hi float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBeta(ls, nil)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi = rows[0].MeanElephants, rows[0].MeanElephants
		for _, r := range rows[1:] {
			if r.MeanElephants < lo {
				lo = r.MeanElephants
			}
			if r.MeanElephants > hi {
				hi = r.MeanElephants
			}
		}
	}
	b.ReportMetric(lo, "elephants@beta-min")
	b.ReportMetric(hi, "elephants@beta-max")
}

// BenchmarkAblationBetaCached measures the β sweep's classification
// work alone, through the matrix execution's detector prepass and
// threshold cache: five constant-load detectors over one link, the
// classify pass consuming precomputed θ(t) columns. The A/B partner of
// BenchmarkAblationBeta, which additionally pays busy-window analysis
// and row summarisation per sweep variant.
func BenchmarkAblationBetaCached(b *testing.B) {
	ls := buildLinks(b)
	specs := make([]*scheme.Spec, 0, 5)
	for _, v := range []string{"0.5", "0.6", "0.7", "0.8", "0.9"} {
		specs = append(specs, scheme.MustParse("load:beta="+v+"+latent"))
	}
	links := []engine.MatrixLink{{ID: "west", Series: ls.West}}
	eng := engine.MultiLinkEngine{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := eng.RunMatrix(links, specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, lr := range out {
			if lr.Err != nil {
				b.Fatal(lr.Err)
			}
		}
	}
	b.ReportMetric(float64(len(specs)), "specs/op")
}

// BenchmarkBaselineComparison regenerates the E-BASE extension: the
// paper's scheme against fixed-threshold and top-K baselines. Reported
// metric: the churn ratio (baseline-best reclassifications over the
// paper scheme's).
func BenchmarkBaselineComparison(b *testing.B) {
	cfg := benchConfig()
	cfg.Intervals = 288 // full diurnal cycle
	ls, err := experiments.BuildLinks(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BaselineComparison(ls)
		if err != nil {
			b.Fatal(err)
		}
		best := rows[1].Reclassifications
		for _, r := range rows[2:] {
			if r.Reclassifications < best {
				best = r.Reclassifications
			}
		}
		if rows[0].Reclassifications > 0 {
			ratio = float64(best) / float64(rows[0].Reclassifications)
		}
	}
	b.ReportMetric(ratio, "baseline/paper-churn")
}

// BenchmarkConcentration regenerates the E-CONC premise measurement.
func BenchmarkConcentration(b *testing.B) {
	ls := buildLinks(b)
	var gini float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Concentration(ls)
		if err != nil {
			b.Fatal(err)
		}
		gini = 0
		for _, r := range rows {
			gini += r.Gini / float64(len(rows))
		}
	}
	b.ReportMetric(gini, "gini")
}

// BenchmarkSamplingImpact regenerates the E-SAMP extension, reporting
// the elephant-set agreement at 1-in-1000 sampling.
func BenchmarkSamplingImpact(b *testing.B) {
	ls := buildLinks(b)
	sp := scheme.MustParse("load+latent")
	var jaccard float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SamplingImpact(ls, []int{1, 1000}, sp)
		if err != nil {
			b.Fatal(err)
		}
		jaccard = rows[1].MeanJaccard
	}
	b.ReportMetric(jaccard, "jaccard@1e3")
}

// BenchmarkWorkloadSynthesis measures the synthetic generator itself:
// per-interval cost of evolving the two-link flow population.
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
	sp := scheme.MustParse("load+latent")
	res, err := experiments.RunScheme(ls.West, sp)
	if err != nil {
		b.Fatal(err)
	}
	perIter := float64(len(res))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScheme(ls.West, sp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perIter, "intervals/op")
}
