package experiments

import (
	"strings"
	"testing"
)

func TestBaselineComparison(t *testing.T) {
	// A full diurnal cycle: the fixed-threshold baseline only shows its
	// weakness when the load actually swings through day and night.
	cfg := SmallConfig()
	cfg.Intervals = 288 // 24 hours of 5-minute slots
	ls, err := BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := BaselineComparison(classify(t, ls, "load+latent")[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	paper := rows[0]
	var single, fixed, topk, mg, ss *Row
	for i := range rows[1:] {
		r := &rows[i+1]
		switch {
		case r.Label == "single-feature 0.8-load":
			single = r
		case strings.HasPrefix(r.Label, "fixed"):
			fixed = r
		case strings.HasPrefix(r.Label, "top-"):
			topk = r
		case strings.HasPrefix(r.Label, "misra-gries"):
			mg = r
		case strings.HasPrefix(r.Label, "space-saving"):
			ss = r
		}
	}
	if single == nil || fixed == nil || topk == nil || mg == nil || ss == nil {
		t.Fatalf("strategies missing: %+v", rows)
	}
	// The sketch baselines must actually classify something.
	for _, b := range []*Row{mg, ss} {
		if b.MeanElephants <= 0 {
			t.Errorf("%s: no elephants", b.Label)
		}
	}
	// The paper's scheme must beat every baseline on churn.
	for _, b := range []*Row{single, fixed, topk, mg, ss} {
		if paper.Reclassifications >= b.Reclassifications {
			t.Errorf("paper scheme reclass %d not below %s's %d",
				paper.Reclassifications, b.Label, b.Reclassifications)
		}
		if paper.Holding.MeanHolding <= b.Holding.MeanHolding {
			t.Errorf("paper scheme holding %v not above %s's %v",
				paper.Holding.MeanHolding, b.Label, b.Holding.MeanHolding)
		}
	}
	// The fixed threshold is tuned in hindsight, so its mean load can
	// match; but over a diurnal cycle its elephant count must swing far
	// more than the adaptive scheme's.
	if fixed.CountCV <= paper.CountCV {
		t.Errorf("fixed-threshold count CV %v not above adaptive %v",
			fixed.CountCV, paper.CountCV)
	}
}

func TestConcentration(t *testing.T) {
	ls := smallLinks(t)
	rows, err := Concentration(ls)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 per link)", len(rows))
	}
	for _, r := range rows {
		// The elephants-and-mice premise: strong concentration.
		if r.Gini < 0.5 {
			t.Errorf("%s@%d: Gini %v too equal for backbone traffic", r.Link, r.Interval, r.Gini)
		}
		if r.Top10Share < 0.5 {
			t.Errorf("%s@%d: top 10%% carries only %v", r.Link, r.Interval, r.Top10Share)
		}
		if r.Top1Share >= r.Top10Share {
			t.Errorf("%s@%d: top1 %v >= top10 %v", r.Link, r.Interval, r.Top1Share, r.Top10Share)
		}
		if r.Flows <= 0 {
			t.Errorf("%s@%d: no flows", r.Link, r.Interval)
		}
	}
}

func TestSamplingImpact(t *testing.T) {
	ls := smallLinks(t)
	rows, err := SamplingImpact(classify(t, ls, "load+latent")[0], []int{1, 100, 1000}, ls.Cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	unsampled, sampled, sparse := rows[0], rows[1], rows[2]
	if unsampled.JaccardVsUnsampled < 0.999 {
		t.Errorf("rate-1 run must match the reference: jaccard %v", unsampled.JaccardVsUnsampled)
	}
	// 1-in-100 sampling must still identify essentially the same
	// elephants: they are heavy, so their packet counts survive
	// thinning. This is the robustness property that made sampled
	// NetFlow usable for heavy-hitter work.
	if sampled.JaccardVsUnsampled < 0.75 {
		t.Errorf("1-in-100 jaccard %v, want > 0.75", sampled.JaccardVsUnsampled)
	}
	if sampled.TrueLoadFraction < unsampled.TrueLoadFraction*0.85 {
		t.Errorf("sampled run lost load coverage: %v vs %v",
			sampled.TrueLoadFraction, unsampled.TrueLoadFraction)
	}
	if sampled.MeanElephants <= 0 || sampled.Holding.MeanHolding <= 0 {
		t.Errorf("degenerate sampled row: %+v", sampled)
	}
	// Even 1-in-1000 keeps most of the set: agreement degrades with the
	// rate, gracefully.
	if j := sparse.JaccardVsUnsampled; j < 0.6 || j > sampled.JaccardVsUnsampled {
		t.Errorf("1-in-1000 jaccard %v, want in [0.6, %v]", j, sampled.JaccardVsUnsampled)
	}
}

func TestSamplingImpactRejectsBadRate(t *testing.T) {
	ls := smallLinks(t)
	if _, err := SamplingImpact(classify(t, ls, "load+single")[0], []int{0}, ls.Cfg.Seed); err == nil {
		t.Error("rate 0 accepted")
	}
}

func TestBaselineSetJaccard(t *testing.T) {
	ls := smallLinks(t)
	rows, err := BaselineComparison(classify(t, ls, "load+latent")[0])
	if err != nil {
		t.Fatal(err)
	}
	paper := rows[0]
	if paper.SetJaccard <= 0 || paper.SetJaccard > 1 {
		t.Fatalf("paper jaccard = %v", paper.SetJaccard)
	}
	// The paper's scheme must keep membership more stable than every
	// baseline.
	for _, r := range rows[1:] {
		if r.SetJaccard >= paper.SetJaccard {
			t.Errorf("%s jaccard %v >= paper %v", r.Label, r.SetJaccard, paper.SetJaccard)
		}
	}
}
