package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/scheme"
)

// BaselineComparison sets the paper's scheme — ref, a classified
// load+latent run — against every baseline the registry offers on the
// same link: single-feature, fixed threshold, top-K talkers and the two
// heavy-hitter sketches. It quantifies what the adaptive threshold and
// latent-heat persistence buy over the rules operational tooling used.
// The fixed threshold is set "optimally in hindsight" to ref's mean
// adaptive threshold; K (and the sketches' counter budget) is set to
// ref's mean elephant count, so each baseline gets its best shot. The
// five baselines share one Classify call; rows come back paper first.
func BaselineComparison(ref Run) ([]Row, error) {
	paper, err := analysis.Summarize(ref.Results, ref.Series.Interval)
	if err != nil {
		return nil, err
	}
	var thetaSum float64
	for i := range ref.Results {
		thetaSum += ref.Results[i].Threshold
	}
	meanTheta := thetaSum / float64(len(ref.Results))
	k := max(int(paper.MeanElephants+0.5), 1)

	strategies := []struct{ name, spec string }{
		{"single-feature 0.8-load", "load+single"},
		{fmt.Sprintf("fixed threshold (%.2g b/s)", meanTheta),
			"fixed:theta=" + strconv.FormatFloat(meanTheta, 'f', -1, 64) + "+single"},
		{fmt.Sprintf("top-%d talkers", k), fmt.Sprintf("load+topk:k=%d", k)},
		{fmt.Sprintf("misra-gries sketch (k=%d)", k), fmt.Sprintf("load+misragries:k=%d", k)},
		{fmt.Sprintf("space-saving sketch (k=%d)", k), fmt.Sprintf("load+spacesaving:k=%d", k)},
	}
	specs := make([]*scheme.Spec, len(strategies))
	for i, st := range strategies {
		if specs[i], err = scheme.Parse(st.spec); err != nil {
			return nil, fmt.Errorf("experiments: baseline %s: %w", st.name, err)
		}
	}
	runs, err := Classify([]engine.MatrixLink{{ID: ref.Link, Series: ref.Series}}, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline matrix: %w", err)
	}
	rows, err := summarizeRuns(runs)
	if err != nil {
		return nil, err
	}
	for i, st := range strategies {
		rows[i].Label = st.name
	}
	return append([]Row{{Label: "paper: 0.8-load + latent heat", Summary: paper}}, rows...), nil
}
