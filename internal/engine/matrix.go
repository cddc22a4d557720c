package engine

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/scheme"
)

// MatrixLink is one link offered to RunMatrix: the series only — the
// scheme dimension comes from the spec list, so registering a new
// scheme makes it runnable over every link at zero marginal cost.
type MatrixLink struct {
	// ID names the link; each (link, spec) cell is reported as
	// MatrixID(ID, spec). Must be unique and non-empty.
	ID string
	// Series is the link's flow-by-interval bandwidth matrix. Sharing
	// one fully aggregated series across specs is safe: snapshots are
	// read-only views and every cell gets fresh pipeline state.
	Series *agg.Series
}

// MatrixID names one (link, spec) cell of a matrix run:
// "linkID/canonical-spec". Pipeline-level Spec fields that sit outside
// the spec grammar (Alpha, MinFlows) are appended when they differ from
// Parse's defaults, so specs
// differing only in those fields — an alpha sweep on the matrix — get
// distinct cell IDs instead of a duplicate-ID rejection.
func MatrixID(linkID string, sp *scheme.Spec) string {
	id := linkID + "/" + sp.String()
	if sp.Alpha != scheme.DefaultAlpha {
		id += fmt.Sprintf("@alpha=%v", sp.Alpha)
	}
	if sp.MinFlows != 0 {
		id += fmt.Sprintf("@minflows=%d", sp.MinFlows)
	}
	return id
}

// StreamWindow is the accumulator-window rule shared by cmd/elephants,
// serve and the examples: an explicit window wins; otherwise
// the window follows the scheme's latent-heat lookback so ingestion
// holds exactly as much history as classification needs, floored at
// agg.DefaultStreamWindow so schemes without persistence still tolerate
// moderately out-of-order sources.
func StreamWindow(sp *scheme.Spec, explicit int) int {
	if explicit > 0 {
		return explicit
	}
	w := agg.DefaultStreamWindow
	if lw, ok := sp.LatentWindow(); ok && lw > w {
		w = lw
	}
	return w
}

// RunMatrix classifies every link under every scheme spec with
// emit-once execution: the pool's unit of work is the link, not the
// (link, spec) cell. One worker walks the link's series once,
// emits each snapshot once, and steps it through all the group's spec
// pipelines — turning S full emission passes per link into one. When
// there are fewer links than workers, the spec list is split into
// per-worker groups so parallelism is preserved (trading some sharing).
// Before that, a detector prepass computes each distinct detector
// config's θ(t) column per link on the pool, so the cells run no
// detection at all and specs sharing a detector key consume one
// computation (see prepass.go).
//
// The output is byte-identical to Run over the links×specs cross
// product with IDs MatrixID(link, spec): same ordering by cell ID, same
// per-cell error isolation — a failing cell reports its error without
// aborting the other cells.
func (e *MultiLinkEngine) RunMatrix(links []MatrixLink, specs []*scheme.Spec) ([]LinkResult, error) {
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	out := make([]LinkResult, 0, len(links)*len(specs))
	for _, l := range links {
		for _, sp := range specs {
			out = append(out, LinkResult{ID: MatrixID(l.ID, sp)})
		}
	}
	return e.runMerged(out, func() {
		cols := e.prepassThresholds(links, specs)
		groups := splitSpecs(specs, e.specGroups(len(links), len(specs)))
		cells := make([]cell, len(out))
		tasks := make([]seriesTask, 0, len(links)*len(groups))
		k := 0 // out and cells run in the same links×specs order
		for _, l := range links {
			for _, g := range groups {
				tasks = append(tasks, seriesTask{series: l.Series, cells: cells[k : k+len(g)]})
				for _, sp := range g {
					cells[k] = cell{out: &out[k], config: sp.Factory()}
					if col, ok := cols[l.ID][sp.DetectorKey()]; ok {
						cells[k].thresholds = col
					}
					k++
				}
			}
		}
		e.runSeries(tasks)
	})
}

// specGroups decides how many contiguous groups to split the spec list
// into: 1 when links alone saturate the pool (maximal sharing),
// otherwise enough groups to keep every worker busy, capped at the
// spec count — with one link and plentiful workers this degenerates to
// the per-cell fan-out.
func (e *MultiLinkEngine) specGroups(nlinks, nspecs int) int {
	workers := e.workers()
	if nlinks >= workers {
		return 1
	}
	return min((workers+nlinks-1)/nlinks, nspecs)
}

// splitSpecs cuts specs into groups contiguous, balanced chunks.
func splitSpecs(specs []*scheme.Spec, groups int) [][]*scheme.Spec {
	out := make([][]*scheme.Spec, 0, groups)
	for g := 0; g < groups; g++ {
		lo, hi := g*len(specs)/groups, (g+1)*len(specs)/groups
		if lo < hi {
			out = append(out, specs[lo:hi])
		}
	}
	return out
}

// validateSpecs rejects empty and nil spec lists up front so the error
// is structural rather than one failure per cell.
func validateSpecs(specs []*scheme.Spec) error {
	if len(specs) == 0 {
		return fmt.Errorf("engine: matrix run with no scheme specs")
	}
	for i, sp := range specs {
		if sp == nil {
			return fmt.Errorf("engine: matrix spec %d is nil", i)
		}
	}
	return nil
}
