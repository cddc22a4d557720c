// Package core implements the paper's contribution: elephant-flow
// classification for traffic engineering. It provides the two threshold
// detection techniques ("aest" and "β-constant load"), the EWMA threshold
// update across measurement intervals, and both classification schemes —
// single-feature (bandwidth vs. threshold) and the two-feature "latent
// heat" scheme that adds persistence in time.
//
// The API is streaming-first and columnar: a Pipeline consumes one
// interval's FlowSnapshot at a time — sorted prefix and bandwidth
// columns, reusable across intervals — exactly as an online traffic
// engineering system would, and emits the interval's elephant set plus
// diagnostics. Package engine fans pipelines out across many monitored
// links; batch helpers in package experiments wrap it for trace
// post-processing.
package core

import (
	"fmt"

	"repro/internal/stats"
)

// Detector computes the separation threshold theta(t) from one
// measurement interval's flow bandwidths (phase 1 of the methodology).
type Detector interface {
	// DetectThreshold returns theta(t) for one interval, given both views
	// of its bandwidth column (bit/s): bandwidths in observation order
	// and sorted, the same values ascending. Both hold the same number of
	// positive values, and both are read-only: a detector must not modify
	// either. Callers build the sorted view once per interval (the
	// snapshot's cached SortedBandwidths, the prepass's per-chunk sort)
	// and hand it to every detector.
	DetectThreshold(bandwidths, sorted []float64) (float64, error)
	// Name identifies the scheme in reports ("aest",
	// "0.80-constant-load").
	Name() string
}

// ThresholdSource supplies precomputed raw thresholds θ(t) to a
// Pipeline, replacing inline detection. Detection — unlike
// classification — is a pure function of one interval's bandwidth
// column, so a batch driver that holds the whole series
// (engine.RunMatrix) can precompute each detector's θ(t) column in
// parallel and share it across every spec using that detector config.
// Sources must honour the purity contract: for every interval t the
// pipeline steps they return exactly what its own detector would have
// produced on that interval's snapshot — value or error.
type ThresholdSource interface {
	// RawThreshold returns θ(t) for interval t. A non-nil err is the
	// detection error the inline path would have hit, and the pipeline
	// fails the interval identically.
	RawThreshold(t int) (theta float64, err error)
}

// ConstantLoadDetector implements the "β-constant load" technique: the
// threshold is set so that the flows exceeding it account for fraction
// Beta of the total traffic in the interval.
type ConstantLoadDetector struct {
	// Beta is the target elephant load fraction, in (0, 1). The paper
	// uses 0.8.
	Beta float64
}

// NewConstantLoadDetector validates beta and returns the detector.
func NewConstantLoadDetector(beta float64) (*ConstantLoadDetector, error) {
	if beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("core: constant-load beta %v outside (0,1)", beta)
	}
	return &ConstantLoadDetector{Beta: beta}, nil
}

// Name implements Detector.
func (d *ConstantLoadDetector) Name() string {
	return fmt.Sprintf("%.2f-constant-load", d.Beta)
}

// DetectThreshold implements Detector. It reads only the sorted view:
// flows are accumulated largest first until they carry the target
// fraction of total traffic, and the threshold is the bandwidth of the
// first *excluded* flow, so that exactly the flows strictly exceeding
// theta account for (at least) the target load — the paper's phrasing
// "all the flows exceeding it account for the chosen fraction of total
// traffic". When every flow is needed, the threshold drops below the
// smallest flow.
func (d *ConstantLoadDetector) DetectThreshold(_, sorted []float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("core: constant-load: empty interval")
	}
	// Total and cumulative sums run largest-first, the exact float
	// summation order of the historical descending-sort implementation.
	var total float64
	for i := len(sorted) - 1; i >= 0; i-- {
		total += sorted[i]
	}
	if total <= 0 {
		return 0, fmt.Errorf("core: constant-load: zero total traffic")
	}
	target := d.Beta * total
	var cum float64
	for i := len(sorted) - 1; i >= 0; i-- {
		cum += sorted[i]
		if cum >= target {
			if i > 0 {
				return sorted[i-1], nil
			}
			break
		}
	}
	// All flows are in the elephant class: any positive value below the
	// minimum keeps them all strictly above the threshold.
	return sorted[0] * 0.999, nil
}

// AestDetector implements the "aest" technique: the threshold is the
// point of the flow-bandwidth distribution after which power-law
// (heavy-tail) behaviour is witnessed, found with the Crovella–Taqqu
// scaling estimator.
type AestDetector struct {
	// scratch is the estimator's reusable working arena; it makes
	// steady-state detection allocation-free and ties the detector to a
	// single goroutine at a time (which Detector already implies —
	// pipelines are single-goroutine and never share detectors).
	scratch stats.AestScratch
}

// aestFallback is the bandwidth quantile used as the threshold when no
// tail is detectable in an interval (small samples, light tails).
const aestFallback = 0.95

// NewAestDetector returns the aest detector.
func NewAestDetector() *AestDetector { return &AestDetector{} }

// Name implements Detector.
func (d *AestDetector) Name() string { return "aest" }

// DetectThreshold implements Detector. The estimator's block
// aggregation is order-sensitive, so the observation-order column feeds
// it; the sorted view supplies the base CCDF, every candidate quantile
// and the fallback quantile.
func (d *AestDetector) DetectThreshold(bandwidths, sorted []float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("core: aest: empty interval")
	}
	if res := d.scratch.AestSorted(bandwidths, sorted); res.TailFound {
		return res.TailOnset, nil
	}
	return stats.QuantileSorted(sorted, aestFallback), nil
}
