// Package analysis is the one place a classified run is summarised. It
// derives the paper's evaluation metrics from a sequence of
// per-interval classification results: elephant counts, traffic
// fractions, holding times in the elephant state (the two-state process
// of Section II), single-interval-elephant counts, churn and membership
// stability (Summarize), and the prefix-length characteristics of
// Section III.
package analysis

import (
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/core"
)

// stateSequences reconstructs, for every flow that was ever an elephant,
// the per-interval two-state process I_j(t) over the window [from, to)
// of result indices.
func stateSequences(results []core.Result, from, to int) map[netip.Prefix][]bool {
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
	// Averages holds each flow's average holding time in the elephant
	// state, in measurement intervals, in core.ComparePrefix order.
	Averages []float64
	// MeanHolding is the across-flow mean of the per-flow averages, in
	// intervals, summed in Averages order so it is the same on every
	// call.
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
	seqs := stateSequences(results, from, to)
	flows := make([]netip.Prefix, 0, len(seqs))
	for p := range seqs {
		flows = append(flows, p)
	}
	slices.SortFunc(flows, core.ComparePrefix)
	st := HoldingStats{Averages: make([]float64, len(flows)), Flows: len(flows)}
	var sum float64
	for i, p := range flows {
		runs := runLengths(seqs[p])
		var total, maxRun int
		for _, r := range runs {
			total += r
			maxRun = max(maxRun, r)
		}
		st.Averages[i] = float64(total) / float64(len(runs))
		sum += st.Averages[i]
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
	for _, avg := range h.Averages {
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
