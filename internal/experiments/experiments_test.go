package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/scheme"
)

// smallLinks builds a reduced two-link setup shared by the tests in this
// file. Sized to keep the full suite fast while leaving enough flows for
// the statistical claims to hold.
func smallLinks(t *testing.T) *LinkSet {
	t.Helper()
	ls, err := BuildLinks(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestBuildLinksDefaultsAndDeterminism(t *testing.T) {
	cfg := SmallConfig()
	a, err := BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.West.NumFlows() != b.West.NumFlows() {
		t.Fatal("flow population not deterministic")
	}
	for tt := 0; tt < a.West.Intervals; tt += 13 {
		if a.West.TotalBandwidth(tt) != b.West.TotalBandwidth(tt) {
			t.Fatalf("interval %d: totals differ", tt)
		}
	}
	if a.East.NumFlows() >= a.West.NumFlows() {
		t.Errorf("east flows %d >= west flows %d", a.East.NumFlows(), a.West.NumFlows())
	}
}

// TestBuildLinksReportsLinkError: a population the table cannot supply
// fails the build with the link named, after both generators are done —
// here west alone fails (60 flows of 50 routes; east asks for 50).
func TestBuildLinksReportsLinkError(t *testing.T) {
	ls, err := BuildLinks(LinksConfig{Routes: 50, Flows: 60, Intervals: 4})
	if err == nil || !strings.Contains(err.Error(), "west link") || ls != nil {
		t.Fatalf("BuildLinks = %v, %v; want the west link's error", ls, err)
	}
}

// TestPaperSpec pins the headline spec and that each call returns an
// independently mutable copy.
func TestPaperSpec(t *testing.T) {
	a, b := PaperSpec(), PaperSpec()
	if a.String() != "load+latent" {
		t.Errorf("PaperSpec() = %q", a.String())
	}
	if a.Name() != "0.80-constant-load+latent-heat" {
		t.Errorf("PaperSpec().Name() = %q", a.Name())
	}
	a.Alpha = 0.9
	if b.Alpha != scheme.DefaultAlpha {
		t.Error("PaperSpec() returned shared state")
	}
}

// classify runs the specs (in spec grammar) over both evaluation links.
func classify(t *testing.T, ls *LinkSet, specs ...string) []Run {
	t.Helper()
	parsed := make([]*scheme.Spec, len(specs))
	for i, sp := range specs {
		parsed[i] = scheme.MustParse(sp)
	}
	runs, err := Classify(ls.Links(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestRunSchemeProducesOneResultPerInterval(t *testing.T) {
	ls := smallLinks(t)
	res := classify(t, ls, "load+single")[0].Results
	if len(res) != ls.West.Intervals {
		t.Fatalf("results = %d, want %d", len(res), ls.West.Intervals)
	}
	for i, r := range res {
		if r.Interval != i {
			t.Fatalf("result %d has interval %d", i, r.Interval)
		}
		if r.ActiveFlows == 0 || r.TotalLoad <= 0 {
			t.Fatalf("interval %d: empty (%+v)", i, r)
		}
	}
}

// TestConstantLoadHitsTarget: without latent heat, the 0.8-constant-load
// scheme must apportion ≈80% of traffic to elephants by construction.
func TestConstantLoadHitsTarget(t *testing.T) {
	ls := smallLinks(t)
	fr := analysis.MeanFloat(analysis.FractionSeries(classify(t, ls, "load+single")[0].Results))
	if fr < 0.70 || fr > 0.90 {
		t.Errorf("single-feature 0.8-load fraction = %.3f, want ≈ 0.8", fr)
	}
}

// TestLatentHeatReducesChurn is the paper's central claim at test scale:
// versus single-feature classification, the latent-heat scheme must
// (a) lengthen mean elephant holding times by at least 2x,
// (b) cut single-interval elephants by at least 5x,
// (c) keep the elephant load fraction within 25% of the single-feature
//
//	value.
func TestLatentHeatReducesChurn(t *testing.T) {
	ls := smallLinks(t)
	for _, det := range []string{"load", "aest"} {
		rows, err := summarizeRuns(classify(t, ls, det+"+single", det+"+latent")[:2])
		if err != nil {
			t.Fatal(err)
		}
		single, two := rows[0], rows[1] // the west link's cells
		if two.Holding.MeanHolding < 2*single.Holding.MeanHolding {
			t.Errorf("%s: holding %0.1f -> %0.1f, want >= 2x", det, single.Holding.MeanHolding, two.Holding.MeanHolding)
		}
		if single.Holding.SingleIntervalFlows < 5*two.Holding.SingleIntervalFlows {
			t.Errorf("%s: 1-slot flows %d -> %d, want >= 5x drop", det, single.Holding.SingleIntervalFlows, two.Holding.SingleIntervalFlows)
		}
		if fr1, fr2 := single.MeanLoadFraction, two.MeanLoadFraction; fr2 < fr1*0.75 || fr2 > fr1*1.25 {
			t.Errorf("%s: fraction %0.3f -> %0.3f drifted more than 25%%", det, fr1, fr2)
		}
	}
}

func TestRunFigure1Labels(t *testing.T) {
	runs := classify(t, smallLinks(t), "load+latent", "aest+latent")
	var got []string
	for _, r := range runs {
		got = append(got, r.Label())
	}
	want := []string{ // link-major, spec-minor
		"constant load (west coast)",
		"aest (west coast)",
		"constant load (east coast)",
		"aest (east coast)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("labels = %q, want %q", got, want)
	}
}

func TestFig1Extractors(t *testing.T) {
	ls := smallLinks(t)
	runs := classify(t, ls, "load+latent", "aest+latent")
	counts := Fig1a(runs)
	fracs := Fig1b(runs)
	if len(counts) != 4 || len(fracs) != 4 {
		t.Fatal("series count")
	}
	for i := range counts {
		if len(counts[i].Values) != ls.Cfg.Intervals {
			t.Errorf("series %d: %d values", i, len(counts[i].Values))
		}
		if slices.Min(counts[i].Values) <= 0 {
			t.Errorf("%s: an interval without elephants", counts[i].Label)
		}
		for _, v := range fracs[i].Values {
			if v < 0 || v > 1 {
				t.Errorf("fraction %v out of [0,1]", v)
			}
		}
	}
	rows, err := summarizeRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i, series := range Fig1c(rows) {
		r := rows[i]
		if len(series.Values) != fig1cBins {
			t.Errorf("histogram bins = %d", len(series.Values))
		}
		if r.BusyTo-r.BusyFrom != 60 { // five hours of 5-minute slots
			t.Errorf("busy window = [%d,%d)", r.BusyFrom, r.BusyTo)
		}
		var sum float64
		for _, c := range series.Values {
			sum += c
		}
		if int(sum) != r.Holding.Flows {
			t.Errorf("histogram mass %v != flows %d", sum, r.Holding.Flows)
		}
		// Figure 1(b)'s remark: the elephants' share of the traffic
		// fluctuates less than their number.
		if r.LoadFractionCV >= r.CountCV {
			t.Errorf("%s: load fraction CV %v not below count CV %v", r.Label, r.LoadFractionCV, r.CountCV)
		}
	}
}

func TestVolatilityClaims(t *testing.T) {
	ls := smallLinks(t)
	single, err := summarizeRuns(classify(t, ls, "load+single", "aest+single"))
	if err != nil {
		t.Fatal(err)
	}
	two, err := summarizeRuns(classify(t, ls, "load+latent", "aest+latent"))
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 4 || len(two) != 4 {
		t.Fatal("expected 4 runs each")
	}
	for i := range single {
		if single[i].MeanHolding <= 0 || two[i].MeanHolding <= 0 {
			t.Fatalf("non-positive holding times")
		}
		if two[i].MeanHolding < single[i].MeanHolding {
			t.Errorf("%s: latent heat shortened holding (%v -> %v)",
				single[i].Label, single[i].MeanHolding, two[i].MeanHolding)
		}
		if two[i].Holding.SingleIntervalFlows >= single[i].Holding.SingleIntervalFlows {
			t.Errorf("%s: latent heat did not cut one-interval elephants (%d -> %d)",
				single[i].Label, single[i].Holding.SingleIntervalFlows, two[i].Holding.SingleIntervalFlows)
		}
		if two[i].MeanElephants <= 0 {
			t.Errorf("%s: no elephants with latent heat", two[i].Label)
		}
	}
}

func TestPrefixLengthClaim(t *testing.T) {
	for _, r := range PrefixLengths(classify(t, smallLinks(t), "load+latent", "aest+latent")) {
		if r.Stats.TotalElephantFlows() == 0 {
			t.Fatalf("%s: no elephants", r.Label)
		}
		// The paper's claim: elephant prefix lengths span a wide range,
		// i.e. prefix size does not determine elephant status.
		if r.Stats.MaxLen-r.Stats.MinLen < 8 {
			t.Errorf("%s: elephant lengths span only /%d-/%d", r.Label, r.Stats.MinLen, r.Stats.MaxLen)
		}
		// /8s must not dominate the elephant set.
		if r.Stats.ElephantSlash8 > r.Stats.TotalElephantFlows()/10 {
			t.Errorf("%s: %d of %d elephants are /8s", r.Label, r.Stats.ElephantSlash8, r.Stats.TotalElephantFlows())
		}
	}
}

func TestIntervalSensitivityRows(t *testing.T) {
	cfg := SmallConfig()
	cfg.Intervals = 48 // keep the 1-minute regeneration affordable
	rows, err := IntervalSensitivity(cfg, PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanElephants <= 0 {
			t.Errorf("%s: no elephants", r.Label)
		}
		if r.MeanLoadFraction <= 0 || r.MeanLoadFraction > 1 {
			t.Errorf("%s: fraction %v", r.Label, r.MeanLoadFraction)
		}
	}
	// The 5- and 10-minute rows see literally rebinned versions of the
	// same traffic: their load fractions must be within 30%.
	if a, b := rows[1].MeanLoadFraction, rows[2].MeanLoadFraction; a/b > 1.3 || b/a > 1.3 {
		t.Errorf("5m vs 10m fractions diverge: %v vs %v", a, b)
	}
}

func TestAblations(t *testing.T) {
	ls := smallLinks(t)
	alpha, err := Ablation(ls, AlphaSweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(alpha) != len(AlphaSweep.Values) {
		t.Fatal("alpha rows")
	}
	// Threshold smoothness (CV) must decrease with alpha.
	if lo, hi := alpha[1], alpha[len(alpha)-1]; !(hi.ThresholdCV < lo.ThresholdCV) {
		t.Errorf("alpha %s CV %v not below alpha %s CV %v", hi.Label, hi.ThresholdCV, lo.Label, lo.ThresholdCV)
	}

	window, err := Ablation(ls, WindowSweep)
	if err != nil {
		t.Fatal(err)
	}
	// Longer windows mean longer holding and fewer reclassifications.
	for i, w := range window[1:] {
		if !(w.Holding.MeanHolding > window[i].Holding.MeanHolding) {
			t.Errorf("W=%s holding %v not above W=%s %v", w.Label, w.Holding.MeanHolding, window[i].Label, window[i].Holding.MeanHolding)
		}
		if !(w.Reclassifications < window[i].Reclassifications) {
			t.Errorf("W=%s reclass %d not below W=%s %d", w.Label, w.Reclassifications, window[i].Label, window[i].Reclassifications)
		}
	}

	beta, err := Ablation(ls, BetaSweep)
	if err != nil {
		t.Fatal(err)
	}
	// Higher beta -> lower threshold -> more elephants, more load.
	for i, b := range beta[1:] {
		if !(b.MeanElephants > beta[i].MeanElephants) {
			t.Errorf("beta %s elephants %v not above beta %s %v", b.Label, b.MeanElephants, beta[i].Label, beta[i].MeanElephants)
		}
		if !(b.MeanLoadFraction > beta[i].MeanLoadFraction) {
			t.Errorf("beta %s fraction %v not above beta %s %v", b.Label, b.MeanLoadFraction, beta[i].Label, beta[i].MeanLoadFraction)
		}
	}
}
