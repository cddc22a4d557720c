// Package experiments contains the reproduction harness: one entry point
// per figure panel and per quantitative claim of the paper, shared by the
// cmd/experiments binary and the repository's benchmarks. Each harness
// builds the synthetic west/east links, runs the requested classification
// schemes, and returns the series/rows the paper reports.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scheme"
	"repro/internal/trace"
)

// LinksConfig sizes the synthetic evaluation setup. The zero value
// selects the paper-scale defaults (28 hours of 5-minute intervals on
// two OC-12 links); tests use smaller values.
type LinksConfig struct {
	// Routes is the BGP table size. Default 60000.
	Routes int
	// Flows is the number of active prefix flows per link.
	// Default 6500, calibrated so the average elephant count lands
	// near the paper's ~600 (west) / ~500 (east).
	Flows int
	// Intervals is the number of measurement slots. Default 336
	// (28 hours of 5-minute slots, 09:00 Jul 24 to 13:00 Jul 25).
	Intervals int
	// Interval is the measurement interval. Default 5 minutes.
	Interval time.Duration
	// Seed drives all synthesis. Default 1.
	Seed int64
	// MeanLoadBps is the daily-average link load. Default 300 Mbit/s
	// (an OC-12 at ~50% utilisation).
	MeanLoadBps float64
	// Shape overrides the synthetic flow-population shape; zero fields
	// keep the trace package defaults.
	Shape ShapeConfig
}

// ShapeConfig carries the optional flow-population shape overrides of
// LinksConfig; see trace.LinkConfig for the semantics of each field.
type ShapeConfig struct {
	TailIndex  float64
	TailShare  float64
	BodySigma  float64
	BurstSigma float64
	BurstRho   float64
}

func (c *LinksConfig) defaults() {
	if c.Routes == 0 {
		c.Routes = 60000
	}
	if c.Flows == 0 {
		c.Flows = 6500
	}
	if c.Intervals == 0 {
		c.Intervals = 336
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanLoadBps == 0 {
		c.MeanLoadBps = 300e6
	}
}

// TraceStart mirrors the paper's trace start: 09:00 local, Jul 24 2001.
var TraceStart = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

// LinkSet bundles the two evaluation links and their shared BGP table.
type LinkSet struct {
	Table *bgp.Table
	West  *agg.Series
	East  *agg.Series
	Cfg   LinksConfig
}

// BuildLinks synthesizes the two-link evaluation setup deterministically
// from cfg.Seed.
func BuildLinks(cfg LinksConfig) (*LinkSet, error) {
	cfg.defaults()
	table, err := bgp.Generate(bgp.GenConfig{Routes: cfg.Routes, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating BGP table: %w", err)
	}
	west, err := trace.NewLink(trace.LinkConfig{
		Name:        "west",
		Profile:     trace.WestCoastProfile(),
		MeanLoadBps: cfg.MeanLoadBps,
		Flows:       cfg.Flows,
		Table:       table,
		Seed:        cfg.Seed + 100,
		TailIndex:   cfg.Shape.TailIndex,
		TailShare:   cfg.Shape.TailShare,
		BodySigma:   cfg.Shape.BodySigma,
		BurstSigma:  cfg.Shape.BurstSigma,
		BurstRho:    cfg.Shape.BurstRho,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building west link: %w", err)
	}
	east, err := trace.NewLink(trace.LinkConfig{
		Name:        "east",
		Profile:     trace.EastCoastProfile(),
		MeanLoadBps: cfg.MeanLoadBps * 0.9, // the east link runs a bit lighter
		Flows:       cfg.Flows * 5 / 6,     // paper: ~500 vs ~600 elephants
		Table:       table,
		Seed:        cfg.Seed + 200,
		TailIndex:   cfg.Shape.TailIndex,
		TailShare:   cfg.Shape.TailShare,
		BodySigma:   cfg.Shape.BodySigma,
		BurstSigma:  cfg.Shape.BurstSigma,
		BurstRho:    cfg.Shape.BurstRho,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building east link: %w", err)
	}
	ls := &LinkSet{Table: table, Cfg: cfg}
	ls.West = west.GenerateSeries(TraceStart, cfg.Interval, cfg.Intervals)
	ls.East = east.GenerateSeries(TraceStart, cfg.Interval, cfg.Intervals)
	return ls, nil
}

// PaperSpec parses the paper's headline scheme — 0.8-constant-load
// detection with the latent-heat classifier — as a fresh, independently
// mutable spec.
func PaperSpec() *scheme.Spec { return scheme.MustParse("load+latent") }

// RunScheme classifies every interval of series under the scheme spec
// and returns the per-interval results. Every registered scheme — the
// paper's and the baselines alike — runs through the same engine path.
func RunScheme(series *agg.Series, sp *scheme.Spec) ([]core.Result, error) {
	eng := engine.MultiLinkEngine{}
	lrs, err := eng.Run([]engine.Link{{ID: sp.String(), Series: series, Config: sp.Factory()}})
	if err == nil {
		err = lrs[0].Err
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: scheme %s: %w", sp.Name(), err)
	}
	return lrs[0].Results, nil
}

// RunSchemes classifies one series under every spec through a single
// emit-once matrix run: each interval's snapshot is emitted once and
// fanned into all spec pipelines, so an S-spec sweep pays one emission
// and one bandwidth sort per interval instead of S. Results come back
// in spec order, with a parallel per-spec error slice so sweeps can
// attribute failures; the outer error is structural (bad spec list,
// duplicate cell IDs). Per-spec results are byte-identical to
// RunScheme on the same series.
func RunSchemes(series *agg.Series, specs []*scheme.Spec) ([][]core.Result, []error, error) {
	eng := engine.MultiLinkEngine{}
	lrs, err := eng.RunMatrix([]engine.MatrixLink{{ID: "link", Series: series}}, specs)
	if err != nil {
		return nil, nil, err
	}
	byID := make(map[string]engine.LinkResult, len(lrs))
	for _, lr := range lrs {
		byID[lr.ID] = lr
	}
	results := make([][]core.Result, len(specs))
	errs := make([]error, len(specs))
	for i, sp := range specs {
		lr := byID[engine.MatrixID("link", sp)]
		results[i], errs[i] = lr.Results, lr.Err
	}
	return results, errs, nil
}

// matrixLinks exposes the two evaluation links as engine matrix work.
func (ls *LinkSet) matrixLinks() []engine.MatrixLink {
	return []engine.MatrixLink{
		{ID: "west", Series: ls.West},
		{ID: "east", Series: ls.East},
	}
}
