package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
)

// Summary condenses one classified run into the quantities the paper
// argues with. Every table row of the record is a label on one Summary.
type Summary struct {
	// MeanElephants is the run-wide average per-interval elephant count.
	MeanElephants float64
	// CountCV is the coefficient of variation of that count. A fixed
	// absolute threshold lets it swing with the diurnal load; adaptive
	// detection keeps it stable.
	CountCV float64
	// MeanLoadFraction is the run-wide average fraction of traffic
	// apportioned to elephants, LoadFractionCV its coefficient of
	// variation — how predictable the elephant-path load is.
	MeanLoadFraction, LoadFractionCV float64
	// BusyFrom and BusyTo delimit, in interval indices, the busiest
	// five hours of the run (the paper's busy period).
	BusyFrom, BusyTo int
	// Holding holds the busy-window holding times: the across-flow mean
	// of per-flow average stays in the elephant state (in intervals),
	// the flows that were elephants for single intervals only, and the
	// distinct flows that entered the class.
	Holding analysis.HoldingStats
	// MeanHolding is Holding.MeanHolding as a duration.
	MeanHolding time.Duration
	// Reclassifications counts promotions plus demotions over the whole
	// run, a direct churn measure.
	Reclassifications int
	// ThresholdCV is the coefficient of variation of the smoothed
	// threshold θ̂(t) — the smoothness the EWMA is meant to provide.
	ThresholdCV float64
	// SetJaccard is the average Jaccard similarity of consecutive
	// elephant sets — membership stability, which a fixed count (top-K)
	// cannot fake.
	SetJaccard float64
}

// Row is one line of a section's table: a label on a run's Summary.
type Row struct {
	Label string
	Summary
}

// Summarize computes the Summary of one run's results at the given
// measurement interval. It is the package's one busy-window rule and
// one holding-time computation.
func Summarize(results []core.Result, interval time.Duration) (Summary, error) {
	from, to, err := analysis.BusyWindow(results, min(busySlots(interval), len(results)))
	if err != nil {
		return Summary{}, err
	}
	counts := analysis.CountSeries(results)
	fracs := analysis.FractionSeries(results)
	thetas := make([]float64, len(results))
	for i := range results {
		thetas[i] = results[i].Threshold
	}
	tc := analysis.Transitions(results, 0, len(results))
	s := Summary{
		MeanElephants:     analysis.MeanInt(counts),
		CountCV:           cv(report.IntsToFloats(counts)),
		MeanLoadFraction:  analysis.MeanFloat(fracs),
		LoadFractionCV:    cv(fracs),
		BusyFrom:          from,
		BusyTo:            to,
		Holding:           analysis.HoldingTimes(results, from, to),
		Reclassifications: tc.Promotions + tc.Demotions,
		ThresholdCV:       cv(thetas),
		SetJaccard:        analysis.Stability(results).MeanJaccard,
	}
	s.MeanHolding = time.Duration(s.Holding.MeanHolding * float64(interval))
	return s, nil
}

// summarizeRuns labels each run's Summary with the run's figure label.
func summarizeRuns(runs []Run) ([]Row, error) {
	rows := make([]Row, len(runs))
	for i, r := range runs {
		s, err := Summarize(r.Results, r.Series.Interval)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.Label(), err)
		}
		rows[i] = Row{Label: r.Label(), Summary: s}
	}
	return rows, nil
}

// busySlots converts the paper's five-hour busy period to slots.
func busySlots(interval time.Duration) int {
	if interval <= 0 {
		return 60
	}
	return max(int(5*time.Hour/interval), 1)
}

// cv returns the coefficient of variation of xs (0 for an empty series
// or a non-positive mean).
func cv(xs []float64) float64 {
	mean := analysis.MeanFloat(xs)
	if mean <= 0 {
		return 0
	}
	var m2 float64
	for _, x := range xs {
		m2 += float64((x - mean) * (x - mean))
	}
	return math.Sqrt(m2/float64(len(xs))) / mean
}
