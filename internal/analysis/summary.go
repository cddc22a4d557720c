package analysis

import (
	"math"
	"time"

	"repro/internal/core"
)

// Summary condenses one classified run into the quantities the paper
// argues with. Every table row of the reproduction record is a label on
// one Summary.
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
	Holding HoldingStats
	// MeanHolding is Holding.MeanHolding as a duration.
	MeanHolding time.Duration
	// Reclassifications counts promotions plus demotions over the whole
	// run (core.Churn of consecutive elephant sets, an empty set before
	// the first), a direct churn measure.
	Reclassifications int
	// ThresholdCV is the coefficient of variation of the smoothed
	// threshold θ̂(t) — the smoothness the EWMA is meant to provide.
	ThresholdCV float64
	// SetJaccard is the average Jaccard similarity of consecutive
	// elephant sets (0 for fewer than two intervals) — membership
	// stability, which a fixed count (top-K) cannot fake.
	SetJaccard float64
}

// Summarize computes the Summary of one run's results at the given
// measurement interval. It is the one busy-window rule and the one
// holding-time computation behind every row of the record.
func Summarize(results []core.Result, interval time.Duration) (Summary, error) {
	from, to, err := BusyWindow(results, min(busySlots(interval), len(results)))
	if err != nil {
		return Summary{}, err
	}
	n := len(results)
	counts, fracs, thetas := make([]float64, n), make([]float64, n), make([]float64, n)
	s := Summary{BusyFrom: from, BusyTo: to, Holding: HoldingTimes(results, from, to)}
	var prev core.ElephantSet
	for i := range results {
		r := &results[i]
		counts[i], fracs[i], thetas[i] = float64(r.ElephantCount()), r.LoadFraction(), r.Threshold
		promoted, demoted := core.Churn(prev, r.Elephants)
		s.Reclassifications += promoted + demoted
		if i > 0 {
			s.SetJaccard += prev.Jaccard(r.Elephants)
		}
		prev = r.Elephants
	}
	if n > 1 {
		s.SetJaccard /= float64(n - 1)
	}
	s.MeanElephants, s.CountCV = MeanFloat(counts), cv(counts)
	s.MeanLoadFraction, s.LoadFractionCV = MeanFloat(fracs), cv(fracs)
	s.ThresholdCV = cv(thetas)
	s.MeanHolding = time.Duration(s.Holding.MeanHolding * float64(interval))
	return s, nil
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
	mean := MeanFloat(xs)
	if mean <= 0 {
		return 0
	}
	var m2 float64
	for _, x := range xs {
		m2 += float64((x - mean) * (x - mean))
	}
	return math.Sqrt(m2/float64(len(xs))) / mean
}
