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
	"slices"

	"repro/internal/stats"
)

// Detector computes the separation threshold theta(t) from one
// measurement interval's flow bandwidths (phase 1 of the methodology).
type Detector interface {
	// DetectThreshold returns theta(t) for the given positive flow
	// bandwidths (bit/s). The slice may be reordered in place.
	DetectThreshold(bandwidths []float64) (float64, error)
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

// SortedDetector is implemented by detectors that can compute theta(t)
// from a pre-sorted view of the interval, skipping their internal
// sort. Pipeline.Step prefers this path: the snapshot's cached
// SortedBandwidths column is computed once per interval and shared by
// every pipeline classifying the same emitted snapshot, so an S-scheme
// matrix run pays for one sort instead of S.
type SortedDetector interface {
	Detector
	// DetectThresholdSorted returns exactly what
	// DetectThreshold(bandwidths) would, given both the bandwidth
	// column in its original observation order and the same values
	// sorted ascending. Both slices must hold positive, finite values
	// and neither may be modified.
	DetectThresholdSorted(bandwidths, sorted []float64) (float64, error)
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

// DetectThreshold implements Detector. Flows are sorted by bandwidth,
// descending, and accumulated until they carry the target fraction of
// total traffic; the threshold is the bandwidth of the first *excluded*
// flow, so that exactly the flows strictly exceeding theta account for
// (at least) the target load — the paper's phrasing "all the flows
// exceeding it account for the chosen fraction of total traffic". When
// every flow is needed, the threshold drops below the smallest flow.
func (d *ConstantLoadDetector) DetectThreshold(bandwidths []float64) (float64, error) {
	if len(bandwidths) == 0 {
		return 0, fmt.Errorf("core: constant-load: empty interval")
	}
	// The specialised ascending sort, scanned from the top, is ~2x the
	// interface-based descending sort this hot path used to pay; ties
	// may land in a different order, but equal values contribute equal
	// partial sums, so the detected threshold is unchanged.
	slices.Sort(bandwidths)
	return d.detectSorted(bandwidths)
}

// DetectThresholdSorted implements SortedDetector: the technique only
// ever consumes the sorted view, so the pre-sorted column replaces the
// copy-and-sort wholesale.
func (d *ConstantLoadDetector) DetectThresholdSorted(_, sorted []float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("core: constant-load: empty interval")
	}
	return d.detectSorted(sorted)
}

// detectSorted scans an ascending-sorted bandwidth column without
// modifying it.
func (d *ConstantLoadDetector) detectSorted(bandwidths []float64) (float64, error) {
	// Total and cumulative sums run largest-first, the exact float
	// summation order of the historical descending-sort implementation.
	var total float64
	for i := len(bandwidths) - 1; i >= 0; i-- {
		total += bandwidths[i]
	}
	if total <= 0 {
		return 0, fmt.Errorf("core: constant-load: zero total traffic")
	}
	target := d.Beta * total
	var cum float64
	for i := len(bandwidths) - 1; i >= 0; i-- {
		cum += bandwidths[i]
		if cum >= target {
			if i > 0 {
				return bandwidths[i-1], nil
			}
			break
		}
	}
	// All flows are in the elephant class: any positive value below the
	// minimum keeps them all strictly above the threshold.
	return bandwidths[0] * 0.999, nil
}

// AestDetector implements the "aest" technique: the threshold is the
// point of the flow-bandwidth distribution after which power-law
// (heavy-tail) behaviour is witnessed, found with the Crovella–Taqqu
// scaling estimator.
type AestDetector struct {
	// Config tunes the underlying estimator; the zero value uses the
	// estimator defaults.
	Config stats.AestConfig
	// FallbackQuantile is the bandwidth quantile used as the threshold
	// when no tail is detectable in an interval (small samples, light
	// tails). Defaults to 0.95.
	FallbackQuantile float64

	// Fallbacks counts intervals where the estimator found no tail.
	Fallbacks int
	// Detections counts intervals with a detected tail.
	Detections int

	// scratch is the estimator's reusable working arena; it makes
	// steady-state detection allocation-free and ties the detector to a
	// single goroutine at a time (which Detector already implies —
	// pipelines are single-goroutine and never share detectors).
	scratch stats.AestScratch
}

// NewAestDetector returns a detector with default estimator settings.
func NewAestDetector() *AestDetector {
	return &AestDetector{FallbackQuantile: 0.95}
}

// Name implements Detector.
func (d *AestDetector) Name() string { return "aest" }

// DetectThreshold implements Detector.
func (d *AestDetector) DetectThreshold(bandwidths []float64) (float64, error) {
	if len(bandwidths) == 0 {
		return 0, fmt.Errorf("core: aest: empty interval")
	}
	fq := d.FallbackQuantile
	if fq == 0 {
		fq = 0.95
	}
	res := d.scratch.Aest(bandwidths, d.Config)
	if res.TailFound {
		d.Detections++
		return res.TailOnset, nil
	}
	d.Fallbacks++
	return stats.Quantile(bandwidths, fq), nil
}

// DetectThresholdSorted implements SortedDetector. The estimator's
// block aggregation is order-sensitive, so the original-order column
// still feeds it; the sorted view supplies the base CCDF and every
// candidate quantile, which previously each re-sorted the sample.
func (d *AestDetector) DetectThresholdSorted(bandwidths, sorted []float64) (float64, error) {
	if len(bandwidths) == 0 {
		return 0, fmt.Errorf("core: aest: empty interval")
	}
	fq := d.FallbackQuantile
	if fq == 0 {
		fq = 0.95
	}
	res := d.scratch.AestSorted(bandwidths, sorted, d.Config)
	if res.TailFound {
		d.Detections++
		return res.TailOnset, nil
	}
	d.Fallbacks++
	return stats.QuantileSorted(sorted, fq), nil
}
