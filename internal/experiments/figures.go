package experiments

import (
	"repro/internal/analysis"
	"repro/internal/report"
)

// Fig1a extracts the per-interval elephant-count series of Figure 1(a),
// one per run.
func Fig1a(runs []Run) []report.Series {
	out := make([]report.Series, len(runs))
	for i, r := range runs {
		out[i] = report.Series{
			Label:  r.Label(),
			Values: report.IntsToFloats(analysis.CountSeries(r.Results)),
		}
	}
	return out
}

// Fig1b extracts the per-interval elephant traffic-fraction series of
// Figure 1(b), one per run.
func Fig1b(runs []Run) []report.Series {
	out := make([]report.Series, len(runs))
	for i, r := range runs {
		out[i] = report.Series{
			Label:  r.Label(),
			Values: analysis.FractionSeries(r.Results),
		}
	}
	return out
}

// fig1cBins is the upper edge, in intervals, of Figure 1(c)'s x-axis.
const fig1cBins = 60

// Fig1c bins each row's busy-window holding times into the chartable
// histogram of Figure 1(c): flows per one-interval bin of average
// holding time (the paper plots the counts on a log axis).
func Fig1c(rows []Row) []report.Series {
	out := make([]report.Series, len(rows))
	for i, r := range rows {
		out[i] = report.Series{
			Label:  r.Label,
			Values: report.IntsToFloats(r.Holding.HoldingHistogram(fig1cBins)),
		}
	}
	return out
}
