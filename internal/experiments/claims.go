package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/scheme"
)

// PrefixLengthRow carries the Section III prefix-length analysis for
// one run.
type PrefixLengthRow struct {
	Label string
	Stats analysis.PrefixLengthStats
}

// PrefixLengths reproduces the Section III prefix-length observation:
// elephants span roughly /12–/26 and almost no /8 networks qualify,
// showing little correlation between prefix size and elephant status.
func PrefixLengths(runs []Run) []PrefixLengthRow {
	out := make([]PrefixLengthRow, len(runs))
	for i, r := range runs {
		out[i] = PrefixLengthRow{Label: r.Label(), Stats: analysis.PrefixLengths(r.Results, r.Series)}
	}
	return out
}

// IntervalRow summarises one measurement-interval choice; the label is
// the interval.
type IntervalRow struct {
	Row
	// Scheme is the display name of the scheme as run at this interval
	// (the latent-heat window is re-expressed in its slots).
	Scheme string
}

// IntervalSensitivity reproduces the Section II robustness note:
// "similar results were obtained for Delta = 1 min and Delta = 10 mins".
// The west link is generated once at 1-minute resolution and rebinned to
// 5 and 10 minutes, so every row sees the same underlying traffic.
func IntervalSensitivity(cfg LinksConfig, sp *scheme.Spec) ([]IntervalRow, error) {
	const base = time.Minute
	intervals := []time.Duration{base, 5 * time.Minute, 10 * time.Minute}
	cfg.defaults()
	// Regenerate at base resolution covering the same wall-clock span.
	span := time.Duration(cfg.Intervals) * cfg.Interval
	cfg.Interval = base
	cfg.Intervals = int(span / base)
	table, err := buildTable(cfg)
	if err != nil {
		return nil, err
	}
	west, err := generate(westLink(cfg, table), cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]IntervalRow, 0, len(intervals))
	for _, iv := range intervals {
		// Rebin returns west itself at base. The sweep compares
		// mean statistics, so the trailing intervals it truncates on a
		// non-dividing factor are acceptable here.
		series, _, err := west.Rebin(iv)
		if err != nil {
			return nil, fmt.Errorf("experiments: interval sensitivity at %v: %w", iv, err)
		}
		// The latent-heat window is one hour of slots at any interval.
		spAdj := sp
		if _, latent := sp.LatentWindow(); latent {
			spAdj = sp.WithClassifierParam("window", strconv.Itoa(max(int(time.Hour/iv), 1)))
		}
		runs, err := Classify([]engine.MatrixLink{{ID: "west", Series: series}}, []*scheme.Spec{spAdj})
		if err != nil {
			return nil, fmt.Errorf("experiments: interval sensitivity at %v: %w", iv, err)
		}
		s, err := analysis.Summarize(runs[0].Results, iv)
		if err != nil {
			return nil, err
		}
		rows = append(rows, IntervalRow{Row: Row{Label: iv.String(), Summary: s}, Scheme: spAdj.Name()})
	}
	return rows, nil
}
