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
// Three entry points share the pool and the merge contract: Run
// classifies pre-aggregated batch series and RunMatrix fans a list of
// scheme specs over such series, both through the series loop and its
// per-interval step (stepCells); RunStreaming drives each link from an
// agg.RecordSource through a LivePipeline — memory per link is the
// accumulator's window, not the trace length, and the classifications
// are byte-identical to the batch path on the same records.
// NewLivePipeline is the fourth entry point and the one stream loop:
// the daemon pushes records into it, RunStreaming's worker feeds it
// from a source.
//
// Inside a single link the only concurrency is the producer in front of
// it and the stage split: a LivePipeline runs as two stages —
// accumulate and classify — joined by a bounded channel of
// double-buffered sealed snapshots, so interval t+1 accumulates while
// interval t classifies, and records decode and attribute on the
// producer (the daemon's reader, RunStreaming's worker) while earlier
// ones accumulate. Each stage is one goroutine; the link is the unit of
// parallelism (ARCHITECTURE.md, "Why one link accumulates on one
// goroutine"). Records reach the
// accumulate stage a datagram at a time and by reference: SendBatch
// copies a batch into a recycled 32-record slab and queues the slab, so
// the queue costs one channel operation per datagram, not per record.
//
// RunMatrix's unit of work is the (link, spec-group) task, not the
// cell: the series loop emits each interval once per task and steps the
// one snapshot — and its cached sorted bandwidth column — through every
// spec pipeline in the group; latent-heat cells of a group that agree
// on the window also share one set of per-flow window sums, which the
// loop advances once per interval. When links outnumber workers the whole
// spec list shares one emission; with fewer links the spec list splits
// into enough groups to occupy the pool. Output is byte-identical to
// Run over the links×specs cross product, including per-cell error
// isolation.
package engine

import (
	"errors"
	"fmt"
	"io"
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

// StreamLink is one monitored link fed from a finite source: the worker
// draws records from Source and sends them into a private LivePipeline,
// whose accumulate stage windows them into intervals and whose classify
// stage classifies each interval as it closes. The per-link memory
// bound is the window, not the trace length.
type StreamLink struct {
	// ID names the link in the merged output. Must be unique and
	// non-empty within one RunStreaming.
	ID string
	// Source yields the link's records. Consumed exactly once, from the
	// worker goroutine that processes the link; the link's pipeline
	// stages never call it.
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
	// Stream holds the link's accumulator counters as RunStreaming left
	// them: at end of stream, or when the link stopped after a failure
	// (see RunStreaming). Zero for batch runs.
	Stream agg.StreamStats
}

// MultiLinkEngine classifies a set of links concurrently on a worker
// pool.
type MultiLinkEngine struct {
	// Workers bounds the concurrency — for RunStreaming, the links in
	// flight, each link's two pipeline stages running beside its worker;
	// 0 selects GOMAXPROCS. The worker count never affects results, only
	// wall-clock time.
	Workers int
}

func (e *MultiLinkEngine) workers() int {
	if e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// runPool fans n jobs over the engine's workers. newWorker runs once
// per worker goroutine and returns the job body, letting each worker
// own reusable per-worker state (e.g. a snapshot buffer).
func (e *MultiLinkEngine) runPool(n int, newWorker func() func(i int)) {
	workers := min(e.workers(), n)
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

// runMerged is the orchestration every entry point shares: reject empty
// and duplicate result IDs, let fan fill the slots on the pool, merge
// sorted by ID.
func (e *MultiLinkEngine) runMerged(out []LinkResult, fan func()) ([]LinkResult, error) {
	if len(out) == 0 {
		return nil, nil
	}
	seen := make(map[string]bool, len(out))
	for i := range out {
		id := out[i].ID
		if id == "" {
			return nil, fmt.Errorf("engine: link with empty ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("engine: duplicate link ID %q", id)
		}
		seen[id] = true
	}
	fan()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Run classifies every link and returns one LinkResult per link, sorted
// by link ID. Per-link failures are reported in LinkResult.Err;
// Run itself only fails on structurally invalid input (duplicate or
// empty link IDs).
func (e *MultiLinkEngine) Run(links []Link) ([]LinkResult, error) {
	out := make([]LinkResult, len(links))
	cells := make([]cell, len(links))
	tasks := make([]seriesTask, len(links))
	for i, l := range links {
		out[i].ID = l.ID
		cells[i] = cell{out: &out[i], config: l.Config}
		tasks[i] = seriesTask{series: l.Series, cells: cells[i : i+1]}
	}
	return e.runMerged(out, func() { e.runSeries(tasks) })
}

// RunStreaming classifies every stream link and returns one LinkResult
// per link, sorted by link ID — the streaming twin of Run. Each link runs
// as a LivePipeline (Start, Interval, Window and Config from the
// StreamLink, the default buffer): the worker draws the link's records
// from its source in 32-record batches and sends each into the pipeline,
// whose accumulate and classify stages run beside it; an OnResult hook
// collects the results. Per-link memory stays bounded by the window and
// the merge stays deterministic: RunStreaming on sources replaying a
// batch run's records is byte-identical to Run on the corresponding
// series, and to a LivePipeline fed the same records.
//
// On failure a link reports nil Results and Err, and Stream holds the
// counters as they stood when the link stopped:
//
//   - A source error gives Err "engine: link %q: <err>". The partial
//     last batch is sent before the pipeline closes, so Stream.Records
//     is exactly the number of records drawn.
//   - A pipeline error (which wins over a source error) gives the
//     wrapped pipeline error. The stages overlap and the worker stops
//     drawing only once a send sees the failure, so Stream may count
//     records and closed intervals past the failing interval.
func (e *MultiLinkEngine) RunStreaming(links []StreamLink) ([]LinkResult, error) {
	out := make([]LinkResult, len(links))
	for i, l := range links {
		out[i].ID = l.ID
	}
	return e.runMerged(out, func() {
		e.runPool(len(links), func() func(int) {
			return func(i int) { runStream(links[i], &out[i]) }
		})
	})
}

// cell is one classification in flight: the result slot it fills, the
// recipe for its pipeline, and the pipeline itself — built by the loop
// that runs the cell, nil again once the cell has failed, which is how a
// failed cell stops stepping without disturbing its neighbours.
type cell struct {
	out        *LinkResult
	config     func() (core.Config, error)
	thresholds core.ThresholdSource // precomputed θ(t) column; nil detects inline
	pipe       *core.Pipeline
}

// build constructs the cell's pipeline, reporting whether the cell is
// live; a construction failure lands in the slot's Err.
func (c *cell) build() bool {
	c.pipe, c.out.Err = newPipeline(c.out.ID, c.config, c.thresholds, nil)
	return c.pipe != nil
}

// newPipeline builds a link's private pipeline from its config factory,
// with an optional precomputed threshold column attached (the matrix
// prepass); with src nil the pipeline detects inline. A non-nil obs
// replaces the config's stage observer (a LivePipeline's own).
func newPipeline(id string, factory func() (core.Config, error), src core.ThresholdSource, obs core.StageObserver) (*core.Pipeline, error) {
	if factory == nil {
		return nil, fmt.Errorf("engine: link %q: nil config factory", id)
	}
	cfg, err := factory()
	if err != nil {
		return nil, fmt.Errorf("engine: link %q: %w", id, err)
	}
	cfg.Thresholds = src
	if obs != nil {
		cfg.Observer = obs
	}
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: link %q: %w", id, err)
	}
	return pipe, nil
}

// stepCells is the one per-interval step: it pushes interval t's
// snapshot through every live cell, gap-free and in order, and returns
// how many cells are still live. One emission serves them all — the
// cells of a task interned the same rows in the same order, so the ID
// column holds for each cell's table and only the table stamp changes.
// A cell that fails records its wrapped error, drops its results and
// stops stepping; the others carry on.
func stepCells(cells []cell, t int, snap *core.FlowSnapshot) (live int) {
	for i := range cells {
		c := &cells[i]
		if c.pipe == nil {
			continue
		}
		snap.SetIDTable(c.pipe.Table())
		res, err := c.pipe.StepSnapshot(t, snap)
		if err != nil {
			c.out.Results, c.out.Err = nil, fmt.Errorf("engine: link %q: %w", c.out.ID, err)
			c.pipe = nil
			continue
		}
		c.out.Results = append(c.out.Results, res)
		live++
	}
	return live
}

// seriesTask is the series loop's unit of work: one series walked once,
// each interval emitted once and stepped through every cell of the task
// — a single cell for Run, a spec group for RunMatrix.
type seriesTask struct {
	series *agg.Series
	cells  []cell
}

// runSeries fans the tasks over the pool.
func (e *MultiLinkEngine) runSeries(tasks []seriesTask) {
	e.runPool(len(tasks), func() func(int) {
		// Per-worker reusable emission state, shared across every task
		// the worker processes.
		snap := core.NewFlowSnapshot(0)
		var rowIDs []uint32
		return func(i int) { rowIDs = tasks[i].run(snap, rowIDs) }
	})
}

// run is the series loop. Sharing one series between tasks is safe:
// sealing is idempotent, snapshots are read-only views and StepSnapshot
// never retains one.
func (task seriesTask) run(snap *core.FlowSnapshot, rowIDs []uint32) []uint32 {
	s, cells := task.series, task.cells
	if s == nil {
		for i := range cells {
			cells[i].out.Err = fmt.Errorf("engine: link %q: nil series", cells[i].out.ID)
		}
		return rowIDs
	}
	// The series is read from here on, perhaps by several tasks at once:
	// sealing builds its index, and a write to it now panics.
	s.Seal()
	live := 0
	var latent []*core.LatentHeatClassifier
	for i := range cells {
		c := &cells[i]
		if !c.build() {
			continue
		}
		// Intern the link's flows into the pipeline's identity table once;
		// every interval then emits a dense-ID snapshot without hashing a
		// single prefix on the classify path. Each cell's fresh table
		// yields the identical row→ID column.
		rowIDs = s.InternRows(c.pipe.Table(), rowIDs)
		c.out.Results = make([]core.Result, 0, s.Intervals)
		live++
		if lh, ok := c.pipe.Config().Classifier.(*core.LatentHeatClassifier); ok {
			latent = append(latent, lh)
		}
	}
	// Sum once: latent-heat cells that agree on the window read one set
	// of per-flow window sums, which this loop — not any one cell, so a
	// cell failing midway changes nothing for the rest — advances with
	// the interval's snapshot before the cells step it.
	windows := core.ShareLatentWindows(latent)
	for t := 0; t < s.Intervals && live > 0; t++ {
		// Emitted unstamped: stepCells stamps each cell's table.
		s.SnapshotIDs(t, snap, nil, rowIDs)
		for _, w := range windows {
			w.Observe(snap)
		}
		live = stepCells(cells, t, snap)
	}
	return rowIDs
}

// runStream drives one stream link: this worker draws the link's records
// from its source — decode and attribution run here — and sends them into
// the link's LivePipeline, whose accumulate and classify stages run
// beside the worker.
func runStream(l StreamLink, out *LinkResult) {
	if l.Source == nil {
		out.Err = fmt.Errorf("engine: link %q: nil record source", l.ID)
		return
	}
	lp, err := NewLivePipeline(LiveLink{
		ID:       l.ID,
		Start:    l.Start,
		Interval: l.Interval,
		Window:   l.Window,
		Config:   l.Config,
		// Runs on the classify stage; the worker reads out only after Close.
		OnResult: func(s Sealed) error {
			out.Results = append(out.Results, s.Result)
			return nil
		},
	})
	if err != nil {
		out.Err = err
		return
	}
	srcErr := feed(l.Source, lp)
	err = lp.Close()
	out.Stream = lp.Stats()
	if err == nil && srcErr != nil { // the source failed, not the pipeline
		err = fmt.Errorf("engine: link %q: %w", l.ID, srcErr)
	}
	if err != nil {
		out.Results, out.Err = nil, err
	}
}

// feed draws src into slab-sized batches and sends each to lp, the last
// partial one included, so every record drawn reaches the pipeline. It
// returns the source's error (nil at io.EOF); when the pipeline fails it
// stops drawing and returns nil, leaving Close to report the failure.
func feed(src agg.RecordSource, lp *LivePipeline) error {
	var batch [liveSlab]agg.Record
	n := 0
	for {
		var err error
		if batch[n], err = src.Next(); err != nil {
			_, _ = lp.SendBatch(batch[:n]) // a pipeline failure is Close's to report
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if n++; n == liveSlab {
			if _, err := lp.SendBatch(batch[:]); err != nil {
				return nil
			}
			n = 0
		}
	}
}
