package obs

import (
	"repro/internal/core"
	"repro/internal/report"
)

// LinkMetrics is one link's per-interval instrumentation: stage-latency
// histograms, churn counters and threshold/lag gauges, all registered
// under link-labelled series of shared families. It implements
// core.StageObserver — ObserveStep folds the stage timings in, atomic-only
// and allocation-free, so it is safe to attach on the live per-interval
// hot path; the series a step's timings do not feed are written by
// whoever owns the link, as noted on each.
type LinkMetrics struct {
	// Step, Detect and Classify are the stage-latency histograms
	// (seconds): the whole Step call, threshold detection, and the
	// classifier call respectively.
	Step, Detect, Classify *Histogram
	// Promoted and Demoted count elephant-set membership churn across
	// all recorded intervals. The pipeline keeps no previous set; the
	// daemon adds the churn it computes where it records the interval.
	Promoted, Demoted *Counter
	// RawThreshold is the last interval's detected θ(t) in bit/s, set by
	// the daemon from the interval's core.Result.
	RawThreshold *Gauge
	// WatermarkLag is the link's interval watermark lag in seconds —
	// newest record export time minus the newest sealed interval edge.
	// The pipeline does not know it; the daemon sets it at scrape time
	// from the live pipeline's accumulator.
	WatermarkLag *Gauge
	// Stalls counts the blocking waits for a free batch: sends that found
	// every batch of the link's record queue in use. One per wait, however
	// many records the waiting send carried. Mirrored from the pipeline's
	// counter at scrape time via Store (backpressure is counted, never
	// dropped).
	Stalls *Counter
	// StageOverlap is the per-interval overlap histogram (seconds): how
	// long the classify stage ran while the accumulate stage was also
	// making progress. Zero on an idle link or when the stages ran in
	// lockstep; approaching the classify-stage latency when they
	// genuinely overlap.
	StageOverlap *Histogram

	// last is the most recent observation, kept for same-goroutine
	// consumers via Last.
	last core.StepObservation
}

// NewLinkMetrics registers one link's series (labelled link=link) on r
// and returns the bundle. All links share the family declarations and
// the stage histograms share bounds — exponential boundaries suiting
// per-interval stage latencies (defaulting via DefaultStageBounds).
func NewLinkMetrics(r *Registry, link string, bounds []float64) *LinkMetrics {
	lbl := report.Label{Name: "link", Value: link}
	return &LinkMetrics{
		Step: r.NewHistogramSeries("elephantd_step_duration_seconds",
			"Whole pipeline step wall time per interval.", bounds, lbl),
		Detect: r.NewHistogramSeries("elephantd_detect_duration_seconds",
			"Threshold-detection stage wall time per interval.", bounds, lbl),
		Classify: r.NewHistogramSeries("elephantd_classify_duration_seconds",
			"Classification stage wall time per interval.", bounds, lbl),
		Promoted: r.NewCounter("elephantd_link_promoted_total",
			"Flows promoted into the elephant set.", lbl),
		Demoted: r.NewCounter("elephantd_link_demoted_total",
			"Flows demoted out of the elephant set.", lbl),
		RawThreshold: r.NewGauge("elephantd_link_raw_threshold_bps",
			"Last interval's detected raw threshold theta(t) (bit/s).", lbl),
		WatermarkLag: r.NewGauge("elephantd_link_watermark_lag_seconds",
			"Interval watermark lag: newest record export time minus newest sealed interval edge.", lbl),
		Stalls: r.NewCounter("elephantd_link_stalls_total",
			"Blocking waits for a free batch: sends that found every batch of the link's record queue in use.", lbl),
		StageOverlap: r.NewHistogramSeries("elephantd_stage_overlap_seconds",
			"Classify-stage wall time overlapped with the accumulate stage, per interval.", bounds, lbl),
	}
}

// DefaultStageBounds are the stage-histogram bucket boundaries used by
// the daemon: 1 µs up to ~4 s, exponential with factor 4.
func DefaultStageBounds() []float64 { return ExpBuckets(1e-6, 4, 12) }

// ObserveStep implements core.StageObserver: fold one interval's stage
// timings into the histograms. Atomic-only; no allocation.
func (m *LinkMetrics) ObserveStep(o core.StepObservation) {
	m.last = o
	m.Step.Observe(float64(o.StepNanos) / 1e9)
	m.Detect.Observe(float64(o.DetectNanos) / 1e9)
	m.Classify.Observe(float64(o.ClassifyNanos) / 1e9)
}

// Last returns the most recent observation. Unlike the atomic-backed
// metrics it is NOT synchronized: call it only from the goroutine that
// drives the pipeline (a result hook runs there, right after the
// observer — the daemon records each interval's timings from it).
func (m *LinkMetrics) Last() core.StepObservation { return m.last }

var _ core.StageObserver = (*LinkMetrics)(nil)
