package experiments

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/stats"
)

// ConcentrationRow quantifies the "elephants and mice phenomenon" the
// paper's introduction cites — a very small percentage of flows carrying
// the largest part of the information — on one link at one interval.
type ConcentrationRow struct {
	Link     string
	Interval int
	Flows    int
	// Gini is the Gini coefficient of the flow-bandwidth distribution.
	Gini float64
	// Top10Share and Top1Share are the volume fractions of the largest
	// 10% and 1% of flows.
	Top10Share, Top1Share float64
	// TailIndex is the aest tail-index estimate (0 when no tail found).
	TailIndex float64
}

// Concentration measures flow-volume concentration on both links at a
// busy, an average and a quiet interval.
func Concentration(ls *LinkSet) ([]ConcentrationRow, error) {
	var rows []ConcentrationRow
	for _, link := range ls.Links() {
		// Pick the busiest, the median-load and the quietest interval.
		s := link.Series
		busiest, quietest := 0, 0
		for t := 1; t < s.Intervals; t++ {
			if s.TotalBandwidth(t) > s.TotalBandwidth(busiest) {
				busiest = t
			}
			if s.TotalBandwidth(t) < s.TotalBandwidth(quietest) {
				quietest = t
			}
		}
		for _, t := range []int{busiest, s.Intervals / 2, quietest} {
			row, err := concentrationAt(link.ID, s, t)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func concentrationAt(name string, s *agg.Series, t int) (ConcentrationRow, error) {
	snap := s.Snapshot(t, nil)
	// Copy the column: the stats helpers may reorder their input.
	bws := append([]float64(nil), snap.Bandwidths()...)
	if len(bws) == 0 {
		return ConcentrationRow{}, fmt.Errorf("experiments: interval %d of %s link is idle", t, name)
	}
	gini, err := stats.Gini(bws)
	if err != nil {
		return ConcentrationRow{}, err
	}
	top10, err := stats.TopShare(bws, 0.10)
	if err != nil {
		return ConcentrationRow{}, err
	}
	top1, err := stats.TopShare(bws, 0.01)
	if err != nil {
		return ConcentrationRow{}, err
	}
	res := stats.Aest(bws)
	tailIdx := 0.0
	if res.TailFound {
		tailIdx = res.Alpha
	}
	return ConcentrationRow{
		Link: name, Interval: t, Flows: len(bws),
		Gini: gini, Top10Share: top10, Top1Share: top1,
		TailIndex: tailIdx,
	}, nil
}
