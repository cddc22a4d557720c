// Package engine runs the paper's per-link classification pipeline over
// many monitored links concurrently — the backbone setting the paper
// implies (one classifier instance per link of a POP) scaled onto a
// worker pool. Each link is an independent unit of work: a worker builds
// the link's private pipeline from a config factory, streams the link's
// intervals through it as reused columnar snapshots, and deposits the
// per-link results into a pre-sized slot. Pipelines never share mutable
// state (the config factory hands each link fresh detector/classifier
// instances), and sharing one fully aggregated agg.Series between links
// — one link classified under several schemes — is safe, so an N-link
// engine run is byte-identical to N sequential runs regardless of
// worker count or scheduling; the merged output is ordered
// deterministically by link ID.
//
// The engine has two ingestion modes sharing the pool and the merge
// contract: Run classifies pre-aggregated batch series, RunStreaming
// drives each link live from an agg.RecordSource through a
// bounded-memory StreamAccumulator — memory per link is the
// accumulator's window, not the trace length, and the classifications
// are byte-identical to the batch path on the same records.
//
// Inside a single link the only concurrency is the stage split: a
// LivePipeline runs as two stages — accumulate and classify — joined by
// a bounded channel of double-buffered sealed snapshots, so interval
// t+1 accumulates while interval t classifies. Each stage is one
// goroutine; the link is the unit of parallelism (ARCHITECTURE.md,
// "Why one link accumulates on one goroutine"). Records reach the
// accumulate stage a datagram at a time and by reference: SendBatch
// copies a batch into a recycled 32-record slab and queues the slab, so
// the queue costs one channel operation per datagram, not per record.
//
// RunMatrix fans a set of scheme specs over a set of links. Its unit of
// work is the (link, spec-group) task, not the cell: the engine seals
// every series up front (building the interval-major snapshot index)
// and emits each interval once per task, fanning the one snapshot — and
// its cached sorted bandwidth column — into every spec pipeline in the
// group. When links outnumber workers the whole spec list shares one
// emission; with fewer links the spec list splits into enough groups to
// occupy the pool. Output is byte-identical to the cell-per-task
// reference path, kept as RunMatrixPerCell, including per-cell error
// isolation.
package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// Link is one monitored link: an identifier, its bandwidth series, and a
// factory producing a fresh pipeline Config per run. The factory is
// required because classifiers are stateful — two links must never share
// a LatentHeatClassifier instance.
type Link struct {
	// ID names the link in the merged output. Must be unique and
	// non-empty within one Run.
	ID string
	// Series is the link's flow-by-interval bandwidth matrix.
	Series *agg.Series
	// Config returns a fresh pipeline configuration (detector +
	// classifier instances) for this link. Called once per Run, from
	// the worker goroutine that processes the link.
	Config func() (core.Config, error)
}

// StreamLink is one monitored link fed live: records from Source are
// windowed into intervals by a private StreamAccumulator and classified
// as each interval closes. The per-link memory bound is the window, not
// the trace length.
type StreamLink struct {
	// ID names the link in the merged output. Must be unique and
	// non-empty within one RunStreaming.
	ID string
	// Source yields the link's records. Consumed exactly once, from the
	// worker goroutine that processes the link.
	Source agg.RecordSource
	// Start is the left edge of interval 0; the zero value aligns to
	// the first record.
	Start time.Time
	// Interval is the measurement interval Δ. Required.
	Interval time.Duration
	// Window is the accumulator's open-interval count (0 selects
	// agg.DefaultStreamWindow). Size it to cover the source's
	// out-of-orderness — e.g. a NetFlow active timeout.
	Window int
	// Config returns a fresh pipeline configuration for this link.
	Config func() (core.Config, error)
}

// LinkResult is one link's complete classification run.
type LinkResult struct {
	// ID echoes the link's identifier.
	ID string
	// Results holds one entry per measurement interval; nil when Err is
	// set.
	Results []core.Result
	// Err is the first error the link's pipeline hit, nil on success. A
	// failing link never aborts the other links' runs.
	Err error
}

// MultiLinkEngine classifies a set of links concurrently on a worker
// pool.
type MultiLinkEngine struct {
	// Workers bounds the concurrency; 0 selects GOMAXPROCS. The worker
	// count never affects results, only wall-clock time.
	Workers int
	// InlineDetection disables RunMatrix's detector prepass and
	// threshold cache, forcing every cell back to per-interval inline
	// detection. Results are byte-identical either way — the
	// equivalence suite pins it — so the switch exists only for A/B
	// benchmarking and as an escape hatch. Run, RunStreaming and the
	// per-cell/streaming matrix paths always detect inline.
	InlineDetection bool
}

// validateIDs rejects empty and duplicate link identifiers.
func validateIDs(ids []string) error {
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" {
			return fmt.Errorf("engine: link with empty ID")
		}
		if seen[id] {
			return fmt.Errorf("engine: duplicate link ID %q", id)
		}
		seen[id] = true
	}
	return nil
}

// runPool fans n jobs over the engine's workers. newWorker runs once
// per worker goroutine and returns the job body, letting each worker
// own reusable per-worker state (e.g. a snapshot buffer).
func (e *MultiLinkEngine) runPool(n int, newWorker func() func(i int)) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newWorker()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// runMerged is the orchestration shared by both ingestion modes:
// validate IDs, fan the links over the pool, merge sorted by link ID.
func (e *MultiLinkEngine) runMerged(n int, id func(int) string, newWorker func() func(int) LinkResult) ([]LinkResult, error) {
	if n == 0 {
		return nil, nil
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = id(i)
	}
	if err := validateIDs(ids); err != nil {
		return nil, err
	}
	out := make([]LinkResult, n)
	e.runPool(n, func() func(int) {
		run := newWorker()
		return func(i int) { out[i] = run(i) }
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Run classifies every link and returns one LinkResult per link, sorted
// by link ID. Per-link failures are reported in LinkResult.Err;
// Run itself only fails on structurally invalid input (duplicate or
// empty link IDs).
func (e *MultiLinkEngine) Run(links []Link) ([]LinkResult, error) {
	return e.runMerged(len(links),
		func(i int) string { return links[i].ID },
		func() func(int) LinkResult {
			// One reusable snapshot per worker: reused across every
			// interval of every link the worker processes.
			snap := core.NewFlowSnapshot(0)
			return func(i int) LinkResult { return runLink(links[i], snap) }
		})
}

// RunStreaming classifies every stream link live and returns one
// LinkResult per link, sorted by link ID — the streaming twin of Run.
// Each worker drives its link's records through a private accumulator
// into a private pipeline, so per-link memory stays bounded by the
// window while the merge stays deterministic: RunStreaming on sources
// replaying a batch run's records is byte-identical to Run on the
// corresponding series.
func (e *MultiLinkEngine) RunStreaming(links []StreamLink) ([]LinkResult, error) {
	return e.runMerged(len(links),
		func(i int) string { return links[i].ID },
		func() func(int) LinkResult {
			return func(i int) LinkResult { return RunStreamLink(links[i]) }
		})
}

// RunLink classifies a single link sequentially on the calling
// goroutine — the reference the engine's concurrent output is defined
// (and tested) against.
func RunLink(l Link) LinkResult {
	return runLink(l, core.NewFlowSnapshot(0))
}

func runLink(l Link, snap *core.FlowSnapshot) LinkResult {
	lr := LinkResult{ID: l.ID}
	if l.Series == nil {
		lr.Err = fmt.Errorf("engine: link %q: nil series", l.ID)
		return lr
	}
	// Seal the series so per-interval emission runs off the
	// interval-major index; idempotent and safe when several links share
	// one series.
	l.Series.Seal()
	pipe, err := newPipeline(l.ID, l.Config)
	if err != nil {
		lr.Err = err
		return lr
	}
	// Intern the link's flows into the pipeline's identity table once;
	// every interval then emits a dense-ID snapshot without hashing a
	// single prefix on the classify path.
	rowIDs := l.Series.InternRows(pipe.Table(), nil)
	results := make([]core.Result, 0, l.Series.Intervals)
	for t := 0; t < l.Series.Intervals; t++ {
		snap = l.Series.SnapshotIDs(t, snap, pipe.Table(), rowIDs)
		// The index-driven batch loop and the streaming emit hook share
		// the same pipeline entry point.
		res, err := pipe.StepSnapshot(t, snap)
		if err != nil {
			lr.Err = fmt.Errorf("engine: link %q: %w", l.ID, err)
			return lr
		}
		results = append(results, res)
	}
	lr.Results = results
	return lr
}

// RunStreamLink classifies a single stream link sequentially on the
// calling goroutine — the reference RunStreaming's concurrent output is
// defined (and tested) against.
func RunStreamLink(l StreamLink) LinkResult {
	lr := LinkResult{ID: l.ID}
	if l.Source == nil {
		lr.Err = fmt.Errorf("engine: link %q: nil record source", l.ID)
		return lr
	}
	pipe, err := newPipeline(l.ID, l.Config)
	if err != nil {
		lr.Err = err
		return lr
	}
	acc, err := agg.NewStreamAccumulator(agg.StreamConfig{
		Start:    l.Start,
		Interval: l.Interval,
		Window:   l.Window,
		// Share the pipeline's flow identity table: emitted snapshots
		// carry dense IDs, so the classifier never hashes a prefix.
		Table: pipe.Table(),
	})
	if err != nil {
		lr.Err = fmt.Errorf("engine: link %q: %w", l.ID, err)
		return lr
	}
	acc.Emit = func(t int, snap *core.FlowSnapshot) error {
		res, err := pipe.StepSnapshot(t, snap)
		if err != nil {
			return err
		}
		lr.Results = append(lr.Results, res)
		return nil
	}
	if err := agg.Stream(l.Source, acc); err != nil {
		lr.Results = nil
		lr.Err = fmt.Errorf("engine: link %q: %w", l.ID, err)
	}
	return lr
}

// newPipeline builds a link's private pipeline from its config factory.
func newPipeline(id string, factory func() (core.Config, error)) (*core.Pipeline, error) {
	return newPipelineThresholds(id, factory, nil)
}

// newPipelineThresholds is newPipeline with an optional precomputed
// threshold column attached (the matrix prepass); src == nil keeps
// inline detection.
func newPipelineThresholds(id string, factory func() (core.Config, error), src core.ThresholdSource) (*core.Pipeline, error) {
	if factory == nil {
		return nil, fmt.Errorf("engine: link %q: nil config factory", id)
	}
	cfg, err := factory()
	if err != nil {
		return nil, fmt.Errorf("engine: link %q: %w", id, err)
	}
	cfg.Thresholds = src
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: link %q: %w", id, err)
	}
	return pipe, nil
}
