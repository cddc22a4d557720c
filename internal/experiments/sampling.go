package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// SamplingRow reports how classification degrades when bandwidths are
// estimated from 1-in-N packet sampling — the measurement mode (sampled
// NetFlow) backbone routers actually ran, and the natural deployment
// question for the paper's scheme. The label is the rate, "1-in-N".
type SamplingRow struct {
	Row
	// TrueLoadFraction is the run-wide average elephant load share
	// measured against the *true* bandwidths.
	TrueLoadFraction float64
	// JaccardVsUnsampled is the average per-interval Jaccard similarity
	// of the sampled elephant set to the unsampled one.
	JaccardVsUnsampled float64
}

// SamplingImpact classifies ref's link under ref's scheme from
// bandwidth estimates reconstructed under 1-in-N packet sampling, for
// each rate (nil: 1, 10, 100, 1000), and compares against ref itself —
// the unsampled run, which is also the rate-1 row. Sampling is simulated
// per (flow, interval): the packet count implied by the flow's true
// bandwidth is thinned binomially, then scaled back up by N — exactly
// the estimator sampled NetFlow used. The sampled series share one
// Classify call.
func SamplingImpact(ref Run, rates []int, seed int64) ([]SamplingRow, error) {
	if len(rates) == 0 {
		rates = []int{1, 10, 100, 1000}
	}
	const meanPacketBytes = 550 // backbone mean packet size of the era
	truth := ref.Series

	var sampled []engine.MatrixLink
	for _, n := range rates {
		if n < 1 {
			return nil, fmt.Errorf("experiments: sampling rate %d < 1", n)
		}
		if n > 1 {
			sampled = append(sampled, engine.MatrixLink{
				ID:     fmt.Sprintf("1-in-%d", n),
				Series: sampleSeries(truth, n, meanPacketBytes, seed+int64(n)),
			})
		}
	}
	var runs []Run
	if len(sampled) > 0 {
		var err error
		if runs, err = Classify(sampled, []*scheme.Spec{ref.Scheme}); err != nil {
			return nil, fmt.Errorf("experiments: sampling: %w", err)
		}
	}

	rows := make([]SamplingRow, 0, len(rates))
	for _, n := range rates {
		run := ref
		if n > 1 {
			run, runs = runs[0], runs[1:]
		}
		res := run.Results
		s, err := analysis.Summarize(res, truth.Interval)
		if err != nil {
			return nil, err
		}
		row := SamplingRow{Row: Row{Label: fmt.Sprintf("1-in-%d", n), Summary: s}}
		var snap *core.FlowSnapshot
		for i := range res {
			row.JaccardVsUnsampled += res[i].Elephants.Jaccard(ref.Results[i].Elephants) / float64(len(res))
			// Load fraction against true bandwidths.
			var eleph float64
			snap = truth.Snapshot(i, snap)
			for k := 0; k < snap.Len(); k++ {
				if res[i].Elephants.Contains(snap.Key(k)) {
					eleph += snap.Bandwidth(k)
				}
			}
			if total := snap.TotalLoad(); total > 0 {
				row.TrueLoadFraction += eleph / total / float64(len(res))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// sampleSeries rebuilds the series from thinned packet counts.
func sampleSeries(s *agg.Series, n int, meanPacketBytes float64, seed int64) *agg.Series {
	rng := rand.New(rand.NewSource(seed))
	out := agg.NewSeries(s.Start, s.Interval, s.Intervals)
	secs := s.Interval.Seconds()
	for _, p := range s.Flows() {
		row, _ := s.Row(p)
		dst := -1 // p's row in out, created by its first sampled cell
		for t, bw := range row {
			if bw <= 0 {
				continue
			}
			pkts := bw * secs / 8 / meanPacketBytes
			sampled := binomialApprox(rng, pkts, 1/float64(n))
			if sampled == 0 {
				continue
			}
			estBits := float64(sampled) * float64(n) * meanPacketBytes * 8
			if dst < 0 {
				dst = out.RowIndex(p)
			}
			out.AddRowBits(dst, t, estBits)
		}
	}
	return out
}

// binomialApprox draws Binomial(n, p) for possibly fractional n, using
// the Poisson limit (accurate for the small p of sampling).
func binomialApprox(rng *rand.Rand, n, p float64) int {
	lambda := float64(n * p)
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation deep in the safe regime.
		v := lambda + float64(math.Sqrt(lambda)*rng.NormFloat64())
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	// Knuth's Poisson sampler.
	l := stats.Exp(-lambda)
	k, prod := 0, 1.0
	for {
		prod *= rng.Float64()
		if prod <= l {
			return k
		}
		k++
	}
}
