package engine

import (
	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// This file implements RunMatrix's detector prepass and threshold
// cache. Threshold detection — unlike classification — is a pure
// function of one interval's bandwidth column and the detector's
// config, so for sealed batch series the engine can (1) compute each
// distinct detector config's θ(t) column exactly once per link, no
// matter how many specs share it (an ablation sweep over alpha or the
// latent window collapses N detector runs to 1), and (2) compute those
// columns across the worker pool before the sequential classify pass,
// turning the per-link critical path from sum(detect+classify) into
// max(parallel detect) + sum(classify). Pipelines consume the columns
// through core.Config.Thresholds; live/stream paths never see them and
// keep inline detection.

// thresholdColumn is one (link, detector-key) precomputed θ(t) column —
// the engine-side implementation of core.ThresholdSource. It covers
// every interval of its link's series: theta[t] (or errs[t]) is exactly
// what the pipeline's own detector would have produced on interval t's
// snapshot, value or error. errs stays nil on links whose every
// interval detects cleanly.
type thresholdColumn struct {
	theta []float64
	errs  []error
}

// RawThreshold implements core.ThresholdSource.
func (c *thresholdColumn) RawThreshold(t int) (float64, bool, error) {
	if t < 0 || t >= len(c.theta) {
		return 0, false, nil
	}
	var err error
	if c.errs != nil {
		err = c.errs[t]
	}
	return c.theta[t], true, err
}

func (c *thresholdColumn) setErr(t int, err error) {
	if c.errs == nil {
		c.errs = make([]error, len(c.theta))
	}
	c.errs[t] = err
}

// prepassDetector is one distinct detector config drawn from the spec
// list: the canonical cache key plus the spec that first used it (each
// prepass job builds its own fresh detector instance from it, because
// detectors carry per-instance scratch state).
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

// sortedColumns holds one link's per-interval bandwidth segments sorted
// ascending, flattened: segment t is bw[offsets[t]:offsets[t+1]]. It
// replicates the snapshot's cached SortedBandwidths column for every
// interval at once, so sorted-aware detectors in the prepass see the
// byte-identical view inline detection would have — and the classify
// pass, with all detectors covered, never sorts at all. One sort per
// (link, interval) total, exactly as emit-once execution pays today.
type sortedColumns struct {
	offsets []int64
	bw      []float64
}

func (s *sortedColumns) segment(t int) []float64 {
	return s.bw[s.offsets[t]:s.offsets[t+1]]
}

// sortScratch is a worker-owned ping-pong buffer for the radix sort.
// CSR bandwidth segments are strictly positive by construction, so
// stats.SortPositive produces exactly the sequence the snapshot's
// slices.Sort-backed SortedBandwidths column would.
type sortScratch struct{ tmp []float64 }

func (s *sortScratch) sort(xs []float64) {
	if cap(s.tmp) < len(xs) {
		s.tmp = make([]float64, len(xs))
	}
	stats.SortPositive(xs, s.tmp[:len(xs)])
}

// buildSortedColumns sorts every interval's bandwidth view of one
// link. Returns nil when the series has no CSR index (the prepass is
// skipped for the link and its pipelines detect inline).
func buildSortedColumns(l MatrixLink, scratch *sortScratch) *sortedColumns {
	n := l.Series.Intervals
	sc := &sortedColumns{offsets: make([]int64, n+1)}
	for t := 0; t < n; t++ {
		seg := l.Series.IntervalBandwidths(t)
		if seg == nil {
			return nil
		}
		sc.offsets[t+1] = sc.offsets[t] + int64(len(seg))
	}
	sc.bw = make([]float64, sc.offsets[n])
	for t := 0; t < n; t++ {
		dst := sc.bw[sc.offsets[t]:sc.offsets[t+1]]
		copy(dst, l.Series.IntervalBandwidths(t))
		scratch.sort(dst)
	}
	return sc
}

// prepassThresholds computes the full (link, detector-key) threshold
// matrix on the worker pool: phase (a) builds each link's sorted
// bandwidth columns, phase (b) runs every distinct detector config over
// every link's intervals. The returned map is read-only afterwards;
// missing links (no CSR index, nil series) simply fall back to inline
// detection.
func (e *MultiLinkEngine) prepassThresholds(links []MatrixLink, specs []*scheme.Spec) map[string]map[string]*thresholdColumn {
	dets := uniqueDetectors(specs)
	if len(dets) == 0 {
		return nil
	}
	// Phase (a): per-link sorted columns, one pool job per link.
	sorted := make([]*sortedColumns, len(links))
	e.runPool(len(links), func() func(int) {
		var scratch sortScratch
		return func(i int) {
			if links[i].Series == nil {
				return
			}
			// The sorted columns read the interval-major index, which
			// only a sealed series builds.
			links[i].Series.Seal()
			sorted[i] = buildSortedColumns(links[i], &scratch)
		}
	})
	// Phase (b): one pool job per (link, detector-key); each job owns a
	// fresh detector instance and reads the shared sorted segments.
	type job struct {
		link int
		det  prepassDetector
		col  *thresholdColumn
	}
	jobs := make([]job, 0, len(links)*len(dets))
	for li := range links {
		if sorted[li] == nil {
			continue
		}
		for _, d := range dets {
			jobs = append(jobs, job{link: li, det: d})
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	e.runPool(len(jobs), func() func(int) {
		var scratch []float64
		return func(i int) {
			j := &jobs[i]
			det, err := j.det.sp.BuildDetector()
			if err != nil {
				return // unreachable: uniqueDetectors already built it once
			}
			l := links[j.link]
			sc := sorted[j.link]
			col := &thresholdColumn{theta: make([]float64, l.Series.Intervals)}
			sortedDet, _ := det.(core.SortedDetector)
			for t := 0; t < l.Series.Intervals; t++ {
				var raw float64
				var derr error
				if sortedDet != nil {
					raw, derr = sortedDet.DetectThresholdSorted(l.Series.IntervalBandwidths(t), sc.segment(t))
				} else {
					scratch = append(scratch[:0], l.Series.IntervalBandwidths(t)...)
					raw, derr = det.DetectThreshold(scratch)
				}
				col.theta[t] = raw
				if derr != nil {
					col.setErr(t, derr)
				}
			}
			jobs[i].col = col
		}
	})
	cols := make(map[string]map[string]*thresholdColumn, len(links))
	for _, j := range jobs {
		if j.col == nil {
			continue
		}
		m := cols[links[j.link].ID]
		if m == nil {
			m = make(map[string]*thresholdColumn, len(dets))
			cols[links[j.link].ID] = m
		}
		m[j.det.key] = j.col
	}
	return cols
}
