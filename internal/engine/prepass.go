package engine

import (
	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// This file implements RunMatrix's detector prepass and threshold
// cache. Threshold detection — unlike classification — is a pure
// function of one interval's bandwidth column and the detector's
// config, so for batch series the engine can (1) compute each
// distinct detector config's θ(t) column exactly once per link, no
// matter how many specs share it (an ablation sweep over alpha or the
// latent window collapses N detector runs to 1), and (2) compute those
// columns across the worker pool before the sequential classify pass,
// turning the per-link critical path from sum(detect+classify) into
// max(parallel detect) + sum(classify). The pool's unit is a chunk of
// consecutive intervals of one link, and a worker finishes an interval —
// copy, sort, every distinct detector — while its column (≈36 KB at the
// paper's scale) is in cache, so a one-link sweep occupies the whole pool
// and no sorted copy of the series is ever materialised. Pipelines
// consume the columns through core.Config.Thresholds; live/stream paths
// never see them and keep inline detection.

// thresholdColumn is one (link, detector-key) precomputed θ(t) column —
// the engine-side implementation of core.ThresholdSource. It covers
// every interval of its link's series: theta[t] (or errs[t]) is exactly
// what the pipeline's own detector would have produced on interval t's
// snapshot, value or error. Both slices are allocated with the column:
// chunks of one link fill disjoint intervals of them concurrently, so
// nothing in a column may be allocated on first use.
type thresholdColumn struct {
	theta []float64
	errs  []error
}

// RawThreshold implements core.ThresholdSource.
func (c *thresholdColumn) RawThreshold(t int) (float64, error) {
	return c.theta[t], c.errs[t]
}

// prepassDetector is one distinct detector config drawn from the spec
// list: the canonical cache key plus the spec that first used it (each
// prepass worker builds its own instance from it, because detectors
// carry per-instance scratch state).
type prepassDetector struct {
	key string
	sp  *scheme.Spec
}

// uniqueDetectors dedupes the spec list by canonical detector key,
// preserving first-appearance order. Specs whose detector does not
// build are skipped: their pipelines will fail construction with the
// same error, so their key is never consulted.
func uniqueDetectors(specs []*scheme.Spec) []prepassDetector {
	seen := make(map[string]bool, len(specs))
	dets := make([]prepassDetector, 0, len(specs))
	for _, sp := range specs {
		key := sp.DetectorKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, err := sp.BuildDetector(); err != nil {
			continue
		}
		dets = append(dets, prepassDetector{key: key, sp: sp})
	}
	return dets
}

// prepassChunk is how many consecutive intervals of one link make one
// pool job: few enough that a single link's day of intervals spreads
// over the pool, enough that the job hand-off is noise beside the sorts
// and detector runs it buys.
const prepassChunk = 16

// prepassThresholds computes the full (link, detector-key) threshold
// matrix on the worker pool: every link with a series gets a column per
// distinct detector, and the returned map is read-only afterwards. It is
// one pool pass: jobs are (link, chunk of intervals), and for each
// interval the worker copies the bandwidth column, sorts it and runs
// every distinct detector on it before moving on. A worker owns one
// detector instance per config for its whole life, across chunks and
// links: detection is a pure function of the interval's column and the
// config (the ThresholdSource contract), an instance's state is scratch
// storage only, and the instances are thrown away with the worker — so
// θ(t) cannot depend on which worker, or in what order, computed it.
func (e *MultiLinkEngine) prepassThresholds(links []MatrixLink, specs []*scheme.Spec) map[string]map[string]*thresholdColumn {
	dets := uniqueDetectors(specs)
	if len(dets) == 0 {
		return nil
	}
	type job struct{ link, from int }
	// linkCols[li][k] is link li's column for detector k, as the workers
	// address it; byKey holds the same columns as the cells look them up.
	// A link without a series has neither.
	linkCols := make([][]*thresholdColumn, len(links))
	byKey := make(map[string]map[string]*thresholdColumn, len(links))
	longest := 0
	for li, l := range links {
		if l.Series == nil {
			continue
		}
		n := l.Series.Intervals
		linkCols[li] = make([]*thresholdColumn, len(dets))
		byKey[l.ID] = make(map[string]*thresholdColumn, len(dets))
		for k, d := range dets {
			col := &thresholdColumn{theta: make([]float64, n), errs: make([]error, n)}
			linkCols[li][k], byKey[l.ID][d.key] = col, col
		}
		longest = max(longest, n)
	}
	// Chunk-major order: the first jobs the pool picks up belong to
	// different links, so their interval indexes (built on first use,
	// under the series' lock) are built in parallel.
	var jobs []job
	for from := 0; from < longest; from += prepassChunk {
		for li, l := range links {
			if l.Series != nil && from < l.Series.Intervals {
				jobs = append(jobs, job{link: li, from: from})
			}
		}
	}
	e.runPool(len(jobs), func() func(int) {
		built := make([]core.Detector, len(dets))
		for k, d := range dets {
			// uniqueDetectors kept only specs whose detector builds.
			built[k], _ = d.sp.BuildDetector()
		}
		var sorted, tmp []float64
		return func(i int) {
			cols, s := linkCols[jobs[i].link], links[jobs[i].link].Series
			for t := jobs[i].from; t < min(jobs[i].from+prepassChunk, s.Intervals); t++ {
				// CSR bandwidth segments are strictly positive by
				// construction, so stats.SortPositive produces exactly the
				// snapshot's SortedBandwidths column.
				bw := s.IntervalBandwidths(t)
				sorted = append(sorted[:0], bw...)
				if cap(tmp) < len(bw) {
					tmp = make([]float64, len(bw))
				}
				stats.SortPositive(sorted, tmp[:len(bw)])
				for k, col := range cols {
					col.theta[t], col.errs[t] = built[k].DetectThreshold(bw, sorted)
				}
			}
		}
	})
	return byKey
}
