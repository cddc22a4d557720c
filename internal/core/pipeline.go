package core

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// DebugInvariants enables O(n) consistency checks on every Step:
// re-verifying the snapshot's sort order and the classifier verdict's
// index ordering. Off by default — production relies on the snapshot's
// O(1) sorted flag maintained by Append.
var DebugInvariants = false

// Config assembles a classification pipeline.
type Config struct {
	// Detector is the phase-1 threshold detection technique. Required.
	Detector Detector
	// Alpha is the EWMA weight on the previous smoothed threshold:
	// θ̂(t+1) = α·θ̂(t) + (1−α)·θ(t). The paper finds α = 0.5
	// sufficiently smooth. Must be in [0, 1).
	Alpha float64
	// Classifier decides membership each interval. Required (use
	// &SingleFeatureClassifier{} or NewLatentHeatClassifier).
	Classifier Classifier
	// MinFlows is the minimum number of active flows required to run
	// detection once a threshold exists; below it the previous
	// threshold is reused. Before the first threshold (the bootstrap)
	// any interval with at least one active flow is detected on, and an
	// interval with none fails. Defaults to 16.
	MinFlows int
	// Thresholds optionally supplies precomputed raw thresholds θ(t)
	// (the engine's batch prepass). A pipeline that has a source
	// consumes its value — or error — on every interval it would have
	// run the Detector on, and never runs the Detector; live/stream
	// pipelines leave this nil and detect inline. The source must honour
	// the ThresholdSource purity contract; everything stateful (EWMA
	// smoothing, MinFlows reuse, classification) stays in the pipeline.
	Thresholds ThresholdSource
	// Observer optionally receives one StepObservation per interval —
	// the per-stage wall times. Nil (the default, and the engine's batch
	// configuration) keeps the step completely uninstrumented: no clock
	// reads.
	Observer StageObserver
}

// Result describes one classified interval. It owns all of its storage:
// results remain valid after the snapshot that produced them is reused.
type Result struct {
	// Interval is the 0-based interval index.
	Interval int
	// RawThreshold is θ(t) detected from this interval's data.
	RawThreshold float64
	// Threshold is θ̂(t), the smoothed threshold actually used to
	// classify this interval.
	Threshold float64
	// Elephants is the elephant set for the interval.
	Elephants ElephantSet
	// ElephantLoad is the total bandwidth of elephant flows (bit/s).
	ElephantLoad float64
	// TotalLoad is the total link load in the interval (bit/s).
	TotalLoad float64
	// ActiveFlows is the number of flows with positive bandwidth.
	ActiveFlows int
}

// ElephantCount returns the size of the interval's elephant set.
func (r *Result) ElephantCount() int { return r.Elephants.Len() }

// LoadFraction returns the fraction of total traffic apportioned to
// elephants (0 when the link is idle).
func (r *Result) LoadFraction() float64 {
	if r.TotalLoad <= 0 {
		return 0
	}
	return r.ElephantLoad / r.TotalLoad
}

// Pipeline runs the two-phase methodology online: for each measurement
// interval it classifies flows against the current smoothed threshold
// θ̂(t), then detects this interval's raw threshold θ(t) and folds it
// into the EWMA that will govern the next interval.
type Pipeline struct {
	cfg  Config
	ewma *stats.EWMA
	t    int
	// table is the pipeline's flow identity table: every prefix this
	// link classifies is interned into a dense uint32 ID exactly once,
	// and ID-aware classifiers index their per-flow columns by it.
	// Producers that feed the pipeline (the engine's stream
	// accumulators) share it so emitted snapshots carry IDs already.
	table *FlowTable
	// needIDs records whether the classifier consumes the ID column
	// (latent heat, whose per-flow columns the table indexes);
	// snapshots arriving without one are filled from the table.
	needIDs bool
	// arena amortizes the per-interval ElephantSet storage.
	arena prefixArena
}

// NewPipeline validates cfg and returns a ready pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Detector == nil {
		return nil, fmt.Errorf("core: NewPipeline: Detector is required")
	}
	if cfg.Classifier == nil {
		return nil, fmt.Errorf("core: NewPipeline: Classifier is required")
	}
	if cfg.Alpha < 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("core: NewPipeline: alpha %v outside [0,1)", cfg.Alpha)
	}
	if cfg.MinFlows == 0 {
		cfg.MinFlows = 16
	}
	p := &Pipeline{cfg: cfg, ewma: stats.NewEWMA(cfg.Alpha), table: NewFlowTable()}
	if lh, ok := cfg.Classifier.(*LatentHeatClassifier); ok {
		lh.table = p.table
		p.needIDs = true
	}
	return p, nil
}

// Table returns the pipeline's flow identity table. Producers feeding
// this pipeline (stream accumulators) attach to it so that emitted
// snapshots carry dense IDs and the classify path never hashes a
// prefix; the table is single-goroutine, owned by whoever drives Step.
func (p *Pipeline) Table() *FlowTable { return p.table }

// StepSnapshot is the push-style entry point for streaming producers
// (an agg.StreamAccumulator's Emit hook, or any source that closes
// intervals as time advances): it classifies interval t's snapshot,
// enforcing that closed intervals arrive in order and gap-free — t must
// equal the number of intervals already processed, and empty intervals
// must be stepped too (they carry the idle link through the EWMA just
// as a zero column of a batch Series would). Step is the index-driven
// equivalent; both share the same per-interval work, so streaming and
// batch classification of identical columns are byte-identical.
func (p *Pipeline) StepSnapshot(t int, snap *FlowSnapshot) (Result, error) {
	if t != p.t {
		return Result{Interval: p.t}, fmt.Errorf("core: StepSnapshot got interval %d, pipeline at %d (closed intervals must arrive in order, gap-free)", t, p.t)
	}
	return p.Step(snap)
}

// Step processes one interval's snapshot and returns the classification
// result. The snapshot must be sorted: every producer — agg.Series,
// the stream accumulator, SnapshotFromMap — appends in ComparePrefix
// order, and a snapshot an out-of-order append marked unsorted is
// refused, not repaired. Calls must be made in interval order. The
// snapshot is not retained: the caller may reset and refill it for the
// next interval.
func (p *Pipeline) Step(snap *FlowSnapshot) (Result, error) {
	res := Result{Interval: p.t}
	if snap == nil {
		return res, fmt.Errorf("core: interval %d: nil snapshot", p.t)
	}
	// Instrumentation is pay-for-use: with no observer the step performs
	// no clock reads at all.
	obs := p.cfg.Observer
	var stepStart time.Time
	if obs != nil {
		stepStart = time.Now()
	}
	// The aest detector's block aggregation is sensitive to sample
	// order, so a deterministic flow order is required for reproducible
	// runs. The snapshot carries it by construction; earlier revisions
	// re-sorted a map's keys here, O(n log n) every interval.
	if !snap.IsSorted() {
		return res, fmt.Errorf("core: interval %d: snapshot not sorted (flows must be appended in ComparePrefix order)", p.t)
	}
	if DebugInvariants && !snap.verifySorted() {
		return res, fmt.Errorf("core: interval %d: snapshot columns mutated out of order", p.t)
	}
	res.TotalLoad = snap.TotalLoad()
	res.ActiveFlows = snap.Len()

	// Phase 1 for this interval: detect θ(t) if the interval carries
	// enough flows, or any flow while no threshold exists yet (the
	// bootstrap); otherwise reuse the running estimate.
	var detectStart time.Time
	if obs != nil {
		detectStart = time.Now()
	}
	if res.ActiveFlows >= p.cfg.MinFlows || (res.ActiveFlows > 0 && !p.ewma.Initialized()) {
		var raw float64
		var err error
		if p.cfg.Thresholds != nil {
			// A precomputed threshold column (the engine's batch
			// prepass) replaces inline detection — value or error,
			// exactly as the detector would have produced them.
			raw, err = p.cfg.Thresholds.RawThreshold(p.t)
		} else {
			// Inline detection sorts the snapshot's column once per
			// fill; a TopK classifier stepping the same fill reuses it.
			raw, err = p.cfg.Detector.DetectThreshold(snap.Bandwidths(), snap.SortedBandwidths())
		}
		if err != nil {
			return res, fmt.Errorf("core: interval %d: %w", p.t, err)
		}
		res.RawThreshold = raw
	} else if p.ewma.Initialized() {
		res.RawThreshold = p.ewma.Value()
	} else {
		return res, fmt.Errorf("core: interval %d: no active flows and no prior threshold", p.t)
	}
	var detectNanos int64
	if obs != nil {
		detectNanos = time.Since(detectStart).Nanoseconds()
	}

	// θ̂(t): for the bootstrap interval the raw threshold doubles as
	// the smoothed one; afterwards the EWMA value carried over from
	// previous intervals is used, matching the paper's phase ordering.
	if !p.ewma.Initialized() {
		res.Threshold = res.RawThreshold
	} else {
		res.Threshold = p.ewma.Value()
	}

	// ID-aware classifiers index their flow columns by the snapshot's
	// dense IDs; batch producers emit plain prefix snapshots, so intern
	// here (one table hit per active flow — the only hash on the whole
	// classify path). Stream producers sharing p.table emit IDs already;
	// a column stamped by a different table (a producer wired to its own
	// private table, such as the accumulate stage of a LivePipeline) is
	// translated by FillIDs rather than trusted.
	if p.needIDs {
		if !snap.HasIDs() || snap.IDTable() != p.table {
			p.table.FillIDs(snap)
		}
		if DebugInvariants {
			for i := 0; i < snap.Len(); i++ {
				if p.table.PrefixOf(snap.ID(i)) != snap.Key(i) {
					return res, fmt.Errorf("core: interval %d: snapshot ID %d does not resolve to %v in the pipeline's table", p.t, snap.ID(i), snap.Key(i))
				}
			}
		}
	}

	var classifyStart time.Time
	if obs != nil {
		classifyStart = time.Now()
	}
	v := p.cfg.Classifier.Classify(snap, res.Threshold)
	var classifyEnd time.Time
	if obs != nil {
		classifyEnd = time.Now()
	}
	if DebugInvariants {
		if err := checkVerdict(snap, v); err != nil {
			return res, fmt.Errorf("core: interval %d: %s: %w", p.t, p.cfg.Classifier.Name(), err)
		}
	}
	for _, i := range v.Indices {
		res.ElephantLoad += snap.Bandwidth(i)
	}
	res.Elephants = mergeElephantsArena(snap, v, &p.arena)

	// Phase 2: fold θ(t) into the EWMA governing interval t+1, and tick
	// the table's quarantine clock — released IDs become reusable only
	// after enough intervals have closed that no open accumulator slot
	// can still reference them.
	p.ewma.Update(res.RawThreshold)
	if p.needIDs {
		p.table.Advance()
	}
	p.t++
	if obs != nil {
		now := time.Now()
		obs.ObserveStep(StepObservation{
			Interval:      res.Interval,
			DetectNanos:   detectNanos,
			ClassifyNanos: classifyEnd.Sub(classifyStart).Nanoseconds(),
			FinalizeNanos: now.Sub(classifyEnd).Nanoseconds(),
			StepNanos:     now.Sub(stepStart).Nanoseconds(),
		})
	}
	return res, nil
}

// checkVerdict validates the Verdict ordering contract classifiers must
// uphold: ascending in-range indices and sorted off-snapshot flows.
func checkVerdict(snap *FlowSnapshot, v Verdict) error {
	for k, i := range v.Indices {
		if i < 0 || i >= snap.Len() {
			return fmt.Errorf("verdict index %d out of range [0,%d)", i, snap.Len())
		}
		if k > 0 && v.Indices[k-1] >= i {
			return fmt.Errorf("verdict indices not ascending at position %d", k)
		}
	}
	for k, p := range v.Offline {
		if k > 0 && ComparePrefix(v.Offline[k-1], p) >= 0 {
			return fmt.Errorf("verdict offline flows not sorted at position %d", k)
		}
		// Offline means absent from the snapshot; an overlap would
		// duplicate the flow in the merged elephant set.
		if _, ok := snap.Lookup(p); ok {
			return fmt.Errorf("verdict offline flow %v is present in the snapshot", p)
		}
	}
	return nil
}

// Threshold returns the current smoothed threshold θ̂ that will be used
// for the next interval.
func (p *Pipeline) Threshold() float64 { return p.ewma.Value() }

// Intervals reports how many intervals have been processed.
func (p *Pipeline) Intervals() int { return p.t }

// Config returns the pipeline's configuration (with defaults applied).
func (p *Pipeline) Config() Config { return p.cfg }
