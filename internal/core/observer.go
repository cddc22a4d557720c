package core

// StageObserver receives one StepObservation per classified interval —
// the pipeline's per-stage instrumentation hook. It is optional and off
// by default: a nil Config.Observer adds nothing to Step but one branch,
// so batch paths (the engine's figure and matrix runs, whose outputs are
// pinned byte-identical and alloc-free) stay uninstrumented, while the
// resident daemon attaches an observer per link. The observer is called
// on the goroutine driving Step, after the interval's result is
// complete and before Step returns — so whoever receives that Result
// next (a live link's result hook) can pair the two: the observation
// says where the time went, the Result says everything else.
//
// Observing must be cheap and allocation-free: the observer runs inside
// the per-interval hot path, and the repository pins the instrumented
// live step at zero allocations per interval.
type StageObserver interface {
	ObserveStep(StepObservation)
}

// StepObservation is where one interval's step spent its time — the one
// thing the interval's Result does not say. Thresholds, loads, counts
// and the elephant set are the Result's; churn against the previous
// interval belongs to whoever keeps the previous set (Churn).
type StepObservation struct {
	// Interval is the 0-based interval index, matching Result.Interval.
	Interval int
	// DetectNanos is wall time spent producing the raw threshold θ(t):
	// the detector call, or the threshold-source lookup, or (below
	// MinFlows) the reuse of the running estimate.
	DetectNanos int64
	// ClassifyNanos is wall time spent in the classifier's Classify.
	ClassifyNanos int64
	// FinalizeNanos is wall time spent after classification: summing
	// elephant load, materialising the elephant set and folding θ(t)
	// into the EWMA.
	FinalizeNanos int64
	// StepNanos is the whole step's wall time (≥ the sum of the stages;
	// the remainder is snapshot validation and ID filling).
	StepNanos int64
}

// Churn counts elephant-set membership changes between consecutive
// intervals: flows entering (promoted) and leaving (demoted). Both sets
// are sorted, so one merge pass suffices; no allocation.
func Churn(prev, cur ElephantSet) (promoted, demoted int) {
	a, b := prev.Flows(), cur.Flows()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := ComparePrefix(a[i], b[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			demoted++
			i++
		default:
			promoted++
			j++
		}
	}
	demoted += len(a) - i
	promoted += len(b) - j
	return promoted, demoted
}
