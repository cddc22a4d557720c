// Package analysis derives the paper's evaluation metrics from a
// sequence of per-interval classification results: elephant counts,
// traffic fractions, holding times in the elephant state (the two-state
// process of Section II), single-interval-elephant counts, and the
// prefix-length characteristics of Section III.
package analysis

import (
	"fmt"
	"net/netip"

	"repro/internal/core"
)

// StateSequences reconstructs, for every flow that was ever an elephant,
// the per-interval two-state process I_j(t) over the window [from, to)
// of result indices.
func StateSequences(results []core.Result, from, to int) map[netip.Prefix][]bool {
	if from < 0 {
		from = 0
	}
	if to > len(results) {
		to = len(results)
	}
	if from >= to {
		return nil
	}
	out := make(map[netip.Prefix][]bool)
	n := to - from
	for i := from; i < to; i++ {
		for _, p := range results[i].Elephants.Flows() {
			seq, ok := out[p]
			if !ok {
				seq = make([]bool, n)
				out[p] = seq
			}
			seq[i-from] = true
		}
	}
	return out
}

// HoldingStats summarizes elephant-state holding times across flows.
type HoldingStats struct {
	// PerFlow maps each flow to its average holding time in the
	// elephant state, in measurement intervals.
	PerFlow map[netip.Prefix]float64
	// MeanHolding is the across-flow mean of the per-flow averages, in
	// intervals.
	MeanHolding float64
	// SingleIntervalFlows counts flows whose every stay in the
	// elephant state lasted exactly one interval.
	SingleIntervalFlows int
	// Flows is the number of flows that entered the elephant state at
	// least once in the window.
	Flows int
}

// runLengths returns the lengths of maximal true-runs in seq. A run
// still open at the window edge counts with its observed length, as the
// paper's busy-period analysis does.
func runLengths(seq []bool) []int {
	var runs []int
	cur := 0
	for _, s := range seq {
		if s {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// HoldingTimes computes holding-time statistics over result indices
// [from, to) — typically the five-hour busy period.
func HoldingTimes(results []core.Result, from, to int) HoldingStats {
	seqs := StateSequences(results, from, to)
	st := HoldingStats{PerFlow: make(map[netip.Prefix]float64, len(seqs))}
	var sum float64
	for p, seq := range seqs {
		runs := runLengths(seq)
		if len(runs) == 0 {
			continue
		}
		var total, maxRun int
		for _, r := range runs {
			total += r
			if r > maxRun {
				maxRun = r
			}
		}
		avg := float64(total) / float64(len(runs))
		st.PerFlow[p] = avg
		sum += avg
		st.Flows++
		if maxRun == 1 {
			st.SingleIntervalFlows++
		}
	}
	if st.Flows > 0 {
		st.MeanHolding = sum / float64(st.Flows)
	}
	return st
}

// HoldingHistogram bins the per-flow average holding times into unit
// (one-interval) bins over [0, maxIntervals), reproducing the x-axis of
// Figure 1(c).
func (h HoldingStats) HoldingHistogram(maxIntervals int) []int {
	bins := make([]int, maxIntervals)
	for _, avg := range h.PerFlow {
		i := int(avg)
		if i >= maxIntervals {
			i = maxIntervals - 1
		}
		bins[i]++
	}
	return bins
}

// BusyWindow locates the contiguous window of the given length (in
// intervals) with maximum total traffic, returning [from, to). It
// reproduces the paper's "five hour busy period" selection. An error is
// returned when the result sequence is shorter than the window.
func BusyWindow(results []core.Result, window int) (int, int, error) {
	if window <= 0 {
		return 0, 0, fmt.Errorf("analysis: BusyWindow: non-positive window %d", window)
	}
	if len(results) < window {
		return 0, 0, fmt.Errorf("analysis: BusyWindow: %d results < window %d", len(results), window)
	}
	var cur float64
	for i := 0; i < window; i++ {
		cur += results[i].TotalLoad
	}
	best, bestAt := cur, 0
	for i := window; i < len(results); i++ {
		cur += results[i].TotalLoad - results[i-window].TotalLoad
		if cur > best {
			best, bestAt = cur, i-window+1
		}
	}
	return bestAt, bestAt + window, nil
}

// CountSeries extracts the per-interval elephant counts (Figure 1(a)).
func CountSeries(results []core.Result) []int {
	out := make([]int, len(results))
	for i := range results {
		out[i] = results[i].ElephantCount()
	}
	return out
}

// FractionSeries extracts the per-interval fraction of total traffic
// apportioned to elephants (Figure 1(b)).
func FractionSeries(results []core.Result) []float64 {
	out := make([]float64, len(results))
	for i := range results {
		out[i] = results[i].LoadFraction()
	}
	return out
}

// MeanInt returns the mean of an int series (0 for empty input).
func MeanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// MeanFloat returns the mean of a float series (0 for empty input).
func MeanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TransitionCounts tallies the per-interval transitions of the two-state
// process over [from, to): promotions (mouse→elephant), demotions
// (elephant→mouse) and steady states. A measure of churn.
type TransitionCounts struct {
	Promotions, Demotions int
	SteadyElephant        int
}

// Transitions computes TransitionCounts over [from, to).
func Transitions(results []core.Result, from, to int) TransitionCounts {
	seqs := StateSequences(results, from, to)
	var tc TransitionCounts
	for _, seq := range seqs {
		for i := 1; i < len(seq); i++ {
			switch {
			case seq[i] && !seq[i-1]:
				tc.Promotions++
			case !seq[i] && seq[i-1]:
				tc.Demotions++
			case seq[i] && seq[i-1]:
				tc.SteadyElephant++
			}
		}
		if len(seq) > 0 && seq[0] {
			tc.Promotions++ // first appearance counts as a promotion
		}
	}
	return tc
}
