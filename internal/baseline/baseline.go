// Package baseline implements the classifier baselines the paper's
// scheme is implicitly compared against: the static absolute threshold
// and the top-K rule that operational tooling of the era used, plus
// streaming heavy-hitter sketches (Misra–Gries and Space-Saving) that
// represent the "common OSS" approach to elephant detection. They plug
// into the same core.Classifier / core.Detector interfaces so every
// experiment can swap them in, quantifying what the paper's adaptive
// threshold + latent heat actually buy.
package baseline

import (
	"fmt"

	"repro/internal/core"
)

// FixedThresholdDetector returns a constant, operator-configured
// threshold — the naive baseline the paper's adaptive detection phase
// replaces. Under diurnal load the fixed value is wrong most of the day:
// too high at night (no elephants), too low at the peak (everything is
// an elephant).
type FixedThresholdDetector struct {
	// Theta is the constant threshold in bit/s.
	Theta float64
}

// NewFixedThresholdDetector validates theta and returns the detector.
func NewFixedThresholdDetector(theta float64) (*FixedThresholdDetector, error) {
	if theta <= 0 {
		return nil, fmt.Errorf("baseline: fixed threshold %v must be positive", theta)
	}
	return &FixedThresholdDetector{Theta: theta}, nil
}

// Name implements core.Detector.
func (d *FixedThresholdDetector) Name() string {
	return fmt.Sprintf("fixed-%.3g", d.Theta)
}

// DetectThreshold implements core.Detector; it reads neither view.
func (d *FixedThresholdDetector) DetectThreshold(_, _ []float64) (float64, error) {
	return d.Theta, nil
}

// TopKClassifier classifies the K highest-bandwidth flows of each
// interval as elephants, ignoring the threshold entirely — the
// "show me the top talkers" rule of classic monitoring consoles.
type TopKClassifier struct {
	// K is the number of flows classified per interval.
	K int

	// scratch reuses the index-sorting buffer across intervals; the
	// returned Verdict aliases its front.
	scratch []int
}

// NewTopKClassifier validates k and returns the classifier.
func NewTopKClassifier(k int) (*TopKClassifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: top-k with k=%d", k)
	}
	return &TopKClassifier{K: k}, nil
}

// Name implements core.Classifier.
func (c *TopKClassifier) Name() string { return fmt.Sprintf("top-%d", c.K) }

// Classify implements core.Classifier. The threshold argument is
// ignored. Ties break toward the lower prefix, which in a sorted
// snapshot is simply the lower index.
//
// Selection runs off the snapshot's cached sorted bandwidth column
// instead of sorting an index permutation per interval: the K-th
// largest value is the cut, everything above it is in, and ties at the
// cut fill the remaining seats in ascending index order — exactly the
// (bandwidth desc, index asc) order the permutation sort selected, in
// one linear pass that also emits the indices already sorted.
func (c *TopKClassifier) Classify(snap *core.FlowSnapshot, _ float64) core.Verdict {
	n := snap.Len()
	k := c.K
	if k > n {
		k = n
	}
	c.scratch = c.scratch[:0]
	if k == n {
		for i := 0; i < n; i++ {
			c.scratch = append(c.scratch, i)
		}
		return core.Verdict{Indices: c.scratch}
	}
	sorted := snap.SortedBandwidths()
	pivot := sorted[n-k]
	// Seats for pivot-valued flows: the run of pivot values at the
	// bottom of the top-k suffix (everything above it is strictly
	// greater and admitted unconditionally).
	seats := 0
	for i := n - k; i < n && sorted[i] == pivot; i++ {
		seats++
	}
	for i, x := range snap.Bandwidths() {
		if x > pivot {
			c.scratch = append(c.scratch, i)
		} else if x == pivot && seats > 0 {
			c.scratch = append(c.scratch, i)
			seats--
		}
	}
	return core.Verdict{Indices: c.scratch}
}
