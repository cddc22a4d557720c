package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scheme"
)

// batchSpecs is the scheme dimension of batch_matrix: both detectors
// crossed with both of the paper's classifiers, so the prepass has two
// detector columns per link to share between four cells.
var batchSpecs = []string{"load+latent", "aest+latent", "load+single", "aest+single"}

const (
	batchWarmReps = 2
	batchMinReps  = 5
	batchMaxReps  = 256
)

type batchInputs struct {
	links []engine.MatrixLink
	specs []*scheme.Spec
}

func buildBatchInputs(seed int64) (*batchInputs, error) {
	ls, err := experiments.BuildLinks(experiments.LinksConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{links: []engine.MatrixLink{{ID: "west", Series: ls.West}, {ID: "east", Series: ls.East}}}
	for _, s := range batchSpecs {
		in.specs = append(in.specs, scheme.MustParse(s))
	}
	return in, nil
}

// lastObservation keeps the most recent StepObservation: the staged
// loops read the stage split of the step they just made from it.
type lastObservation struct{ o core.StepObservation }

func (l *lastObservation) ObserveStep(o core.StepObservation) { l.o = o }

// addStepSpans records a step and, from the pipeline's own observation,
// its detect/classify/finalize children. The observer reports durations
// only, so the children are laid out back to back ending at the step's
// end, in the order the pipeline runs them.
func addStepSpans(tr *tracer, step, detect, classify, finalize, interval int, start, end time.Time, o core.StepObservation) {
	tr.add(step, interval, start, end)
	fin := end.Add(-time.Duration(o.FinalizeNanos))
	cls := fin.Add(-time.Duration(o.ClassifyNanos))
	det := cls.Add(-time.Duration(o.DetectNanos))
	tr.add(finalize, interval, fin, end)
	tr.add(classify, interval, cls, fin)
	tr.add(detect, interval, det, cls)
}

// matrixCells classifies every (link, spec) cell one after the other on
// this goroutine with the pipeline's public pieces — seal, intern, emit,
// step — and no prepass or pool: the reference RunMatrix is checked
// against, and, traced, the source of the batch per-layer numbers. The
// result is keyed by engine.MatrixID.
func matrixCells(in *batchInputs, tr *tracer) (map[string][]core.Result, error) {
	out := make(map[string][]core.Result, len(in.links)*len(in.specs))
	snap := core.NewFlowSnapshot(0)
	var rowIDs []uint32
	for _, l := range in.links {
		l.Series.Seal()
		for _, sp := range in.specs {
			id := engine.MatrixID(l.ID, sp)
			cc, err := sp.Config()
			if err != nil {
				return nil, err
			}
			var last lastObservation
			if tr != nil {
				cc.Observer = &last
			}
			pipe, err := core.NewPipeline(cc)
			if err != nil {
				return nil, err
			}
			rowIDs = l.Series.InternRows(pipe.Table(), rowIDs)
			results := make([]core.Result, 0, l.Series.Intervals)
			for t := 0; t < l.Series.Intervals; t++ {
				t0 := tr.now()
				snap = l.Series.SnapshotIDs(t, snap, pipe.Table(), rowIDs)
				t1 := tr.now()
				res, err := pipe.StepSnapshot(t, snap)
				if err != nil {
					return nil, fmt.Errorf("cell %s: %w", id, err)
				}
				if tr != nil {
					tr.add(bEmit, t, t0, t1)
					addStepSpans(tr, bStep, bDetect, bClassify, bFinalize, t, t1, time.Now(), last.o)
				}
				results = append(results, res)
			}
			out[id] = results
		}
	}
	return out, nil
}

// cellMismatches counts the intervals where a matrix run departs from
// the reference, a missing or failed cell counting in full.
func cellMismatches(got []engine.LinkResult, want map[string][]core.Result) int {
	bad := 0
	seen := 0
	for _, lr := range got {
		w, ok := want[lr.ID]
		if !ok {
			bad++
			continue
		}
		seen++
		if lr.Err != nil {
			bad += len(w)
			continue
		}
		bad += resultMismatches(lr.Results, w)
	}
	if seen < len(want) {
		bad += len(want) - seen
	}
	return bad
}

func runBatchMatrix(cfg runConfig) (*outcome, error) {
	in, setupS, err := timedSetup(func() (*batchInputs, error) { return buildBatchInputs(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	m := out.metrics

	// In a traced run the matrix shares the budget with the staged cells.
	budget := cfg.seconds
	if cfg.traced {
		budget = cfg.seconds * 3 / 10
	}
	var eng engine.MultiLinkEngine
	var first []engine.LinkResult
	firstByID := make(map[string][]core.Result)
	var reps []float64 // seconds per timed repetition
	var spent time.Duration
	before := readProc()
	watch := startProcWatcher()
	total := 0
	for r := 0; r < batchMaxReps; r++ {
		t0 := time.Now()
		res, err := eng.RunMatrix(in.links, in.specs)
		d := time.Since(t0)
		if err != nil {
			watch.done()
			return nil, err
		}
		total++
		if r >= batchWarmReps {
			reps = append(reps, d.Seconds())
			spent += d
		}
		if first == nil {
			first = res
			for _, lr := range first {
				firstByID[lr.ID] = lr.Results
			}
		} else {
			// Every repetition must reproduce the first one exactly.
			out.fail(cellMismatches(res, firstByID), "RunMatrix repetition %d differs from repetition 0", r)
		}
		if len(reps) >= batchMinReps && spent >= budget {
			break
		}
	}
	watch.done()
	after := readProc()

	// A "record" here is one flow-interval sample stepped by one scheme.
	var samples, intervals, elephants float64
	for _, lr := range first {
		for i := range lr.Results {
			samples += float64(lr.Results[i].ActiveFlows)
			elephants += float64(lr.Results[i].ElephantCount())
			intervals++
		}
	}
	rates := make([]float64, len(reps))
	for i, d := range reps {
		rates[i] = samples / d
	}
	m["records_per_s"] = rateMedian(rates)
	repS := median(reps)
	m["bench.rep_ms_p50"] = repS * 1e3
	m["bench.timed_reps"] = float64(len(reps))

	// Output check: RunMatrix (pool, prepass, emit-once) against the
	// cells classified one by one with inline detection.
	ref, err := matrixCells(in, nil)
	if err != nil {
		return nil, err
	}
	out.attempted = uint64(intervals) * uint64(total)
	out.fail(cellMismatches(first, ref), "RunMatrix differs from the cell-by-cell reference")
	if !cfg.traced {
		return out, nil
	}

	// Traced run: the staged cells with spans on, against the same
	// staged cells with spans off.
	t0 := time.Now()
	if _, err := matrixCells(in, nil); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	tr := newTracer(batchLayers)
	var traced []float64
	for t1 := time.Now(); len(traced) < 2 || time.Since(t1) < cfg.seconds*4/10; {
		t0 := time.Now()
		got, err := matrixCells(in, tr)
		if err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(t0).Seconds())
		for id, want := range ref {
			out.fail(resultMismatches(got[id], want), "traced cell %s differs from the untraced one", id)
		}
	}
	spans := tr.recorded()
	busy := busyByLayer(spans, 0, math.MaxInt)
	self := selfTimes(batchLayers, busy)
	cells := intervals * float64(len(traced)) // (cell, interval) steps traced
	m["agg.emit_us_per_interval"] = float64(busy["agg.emit"]) / 1e3 / cells
	m["core.step_us_per_interval"] = float64(busy["core.step"]) / 1e3 / cells
	m["core.detect_us_per_interval"] = float64(busy["core.detect"]) / 1e3 / cells
	m["core.classify_us_per_interval"] = float64(busy["core.classify"]) / 1e3 / cells
	m["core.finalize_us_per_interval"] = float64(busy["core.finalize"]) / 1e3 / cells
	m["agg.intervals_sealed"] = intervals / float64(len(in.specs))
	m["agg.flows_per_interval"] = samples / intervals
	m["core.elephants_per_interval"] = elephants / intervals
	m["engine.matrix_speedup_vs_staged"] = untraced.Seconds() / repS
	m["trace.overhead_ratio"] = median(traced) / untraced.Seconds()
	m["trace.self_time_coverage"] = float64(self["agg.emit"]+self["core.step"]+busy["core.detect"]+busy["core.classify"]+busy["core.finalize"]) / 1e9 / sum(traced)
	procMetrics(m, before, after, watch, samples*float64(total))
	return out, writeTrace(cfg.traceOut, "batch_matrix", spans)
}
