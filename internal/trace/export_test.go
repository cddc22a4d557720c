package trace

import (
	"time"

	"repro/internal/agg"
)

// GenerateSeriesPerCell is GenerateSeries as it was before cells were
// stored a block of intervals at a time by row index: one
// prefix-keyed SetBandwidth per positive cell, interval by interval in
// flow order. It is the oracle the generator — and
// experiments.BuildLinks on top of it — is held to, cell for cell.
func (l *Link) GenerateSeriesPerCell(start time.Time, interval time.Duration, intervals int) *agg.Series {
	s := agg.NewSeries(start, interval, intervals)
	midnight := time.Date(start.Year(), start.Month(), start.Day(), 0, 0, 0, 0, start.Location())
	for t := 0; t < intervals; t++ {
		at := start.Add(time.Duration(t) * interval)
		diurnal := l.cfg.Profile.At(at.Sub(midnight))
		for i := range l.flows {
			bw := l.step(&l.flows[i], diurnal)
			if bw > 0 {
				s.SetBandwidth(l.flows[i].prefix, t, bw)
			}
		}
	}
	return s
}
