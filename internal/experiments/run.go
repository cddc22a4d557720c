package experiments

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scheme"
)

// Run is one classified (link, scheme) cell.
type Run struct {
	// Scheme is the spec that produced the run.
	Scheme *scheme.Spec
	// Link is the link's ID: "west" or "east" for the evaluation links.
	Link string
	// Series is the link's traffic, which the results index into.
	Series *agg.Series
	// Results holds one entry per measurement interval.
	Results []core.Result
}

// Label returns the legend label used in the figures, matching the
// paper's for its two detectors — "constant load (west coast)",
// "aest (east coast)" — and falling back to the scheme's display name
// for any other registry spec.
func (r Run) Label() string {
	var base string
	switch r.Scheme.Detector.Name {
	case "aest":
		base = "aest"
	case "load":
		base = "constant load"
	default:
		base = r.Scheme.Name()
	}
	return fmt.Sprintf("%s (%s coast)", base, r.Link)
}

// Row is one line of a section's table: a label on a run's Summary.
type Row struct {
	Label string
	analysis.Summary
}

// summarizeRuns labels each run's Summary with the run's figure label.
func summarizeRuns(runs []Run) ([]Row, error) {
	rows := make([]Row, len(runs))
	for i, r := range runs {
		s, err := analysis.Summarize(r.Results, r.Series.Interval)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.Label(), err)
		}
		rows[i] = Row{Label: r.Label(), Summary: s}
	}
	return rows, nil
}

// Classify is the package's one engine call: every link under every
// spec as a single RunMatrix, so each interval is emitted once per link
// and specs sharing a detector share its θ(t) column. Runs come back
// link-major, spec-minor, byte-identical to classifying each cell on
// its own; the first failing cell fails the call.
func Classify(links []engine.MatrixLink, specs []*scheme.Spec) ([]Run, error) {
	eng := engine.MultiLinkEngine{}
	lrs, err := eng.RunMatrix(links, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: scheme matrix: %w", err)
	}
	done := make(map[string][]core.Result, len(lrs))
	for _, lr := range lrs {
		if lr.Err != nil {
			return nil, fmt.Errorf("experiments: scheme matrix run %s: %w", lr.ID, lr.Err)
		}
		done[lr.ID] = lr.Results
	}
	runs := make([]Run, 0, len(lrs))
	for _, l := range links {
		for _, sp := range specs {
			runs = append(runs, Run{Scheme: sp, Link: l.ID, Series: l.Series, Results: done[engine.MatrixID(l.ID, sp)]})
		}
	}
	return runs, nil
}

// figureSpecs returns the two detectors of Figure 1 — 0.8-constant-load
// and aest — over the named classifier: "latent" is the paper's figure,
// "single" its Section II counterpart.
func figureSpecs(classifier string) []*scheme.Spec {
	return []*scheme.Spec{
		scheme.MustParse("load+" + classifier),
		scheme.MustParse("aest+" + classifier),
	}
}
