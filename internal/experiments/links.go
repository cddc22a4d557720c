// Package experiments is the reproduction record: the one place the
// paper's figures and quantitative claims are computed. It has four
// parts. BuildLinks synthesises the two evaluation links. Classify is
// the only engine call — links × scheme specs through one RunMatrix.
// Every table row is a Row, a label on analysis.Summarize of one
// classified run (counts, load share, busy-window holding times,
// churn); the package computes no metric of its own beside the
// section-specific columns. Sections is the table of the blocks
// cmd/experiments prints, each with its title, the paper's claim, the
// specs it reads and its renderer; Record.Write classifies the union of
// the selected sections' specs once and renders them in order. Products
// added to anything are wrapped in float64(…), as in package stats.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
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

// buildTable generates the BGP table both links draw their prefixes
// from.
func buildTable(cfg LinksConfig) (*bgp.Table, error) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: cfg.Routes, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating BGP table: %w", err)
	}
	return table, nil
}

// westLink and eastLink are the two evaluation links' generator
// configurations over table: independent populations and RNG streams
// (cfg.Seed+100, cfg.Seed+200).
func westLink(cfg LinksConfig, table *bgp.Table) trace.LinkConfig {
	return trace.LinkConfig{
		Name:        "west",
		Profile:     trace.WestCoastProfile(),
		MeanLoadBps: cfg.MeanLoadBps,
		Flows:       cfg.Flows,
		Table:       table,
		Seed:        cfg.Seed + 100,
	}
}

func eastLink(cfg LinksConfig, table *bgp.Table) trace.LinkConfig {
	return trace.LinkConfig{
		Name:        "east",
		Profile:     trace.EastCoastProfile(),
		MeanLoadBps: cfg.MeanLoadBps * 0.9, // the east link runs a bit lighter
		Flows:       cfg.Flows * 5 / 6,     // paper: ~500 vs ~600 elephants
		Table:       table,
		Seed:        cfg.Seed + 200,
	}
}

// generate samples lc's flow population and simulates it over cfg's
// window.
func generate(lc trace.LinkConfig, cfg LinksConfig) (*agg.Series, error) {
	link, err := trace.NewLink(lc)
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s link: %w", lc.Name, err)
	}
	return link.GenerateSeries(TraceStart, cfg.Interval, cfg.Intervals), nil
}

// BuildLinks synthesizes the two-link evaluation setup deterministically
// from cfg.Seed. The links share the (read-only) table and nothing
// else, so they are generated side by side.
func BuildLinks(cfg LinksConfig) (*LinkSet, error) {
	cfg.defaults()
	table, err := buildTable(cfg)
	if err != nil {
		return nil, err
	}
	ls := &LinkSet{Table: table, Cfg: cfg}
	var wg sync.WaitGroup
	var eastErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		ls.East, eastErr = generate(eastLink(cfg, table), cfg)
	}()
	ls.West, err = generate(westLink(cfg, table), cfg)
	wg.Wait()
	if err == nil {
		err = eastErr
	}
	if err != nil {
		return nil, err
	}
	return ls, nil
}

// PaperSpec parses the paper's headline scheme — 0.8-constant-load
// detection with the latent-heat classifier — as a fresh, independently
// mutable spec.
func PaperSpec() *scheme.Spec { return scheme.MustParse("load+latent") }

// Links exposes the two evaluation links as engine matrix work, west
// first.
func (ls *LinkSet) Links() []engine.MatrixLink {
	return []engine.MatrixLink{
		{ID: "west", Series: ls.West},
		{ID: "east", Series: ls.East},
	}
}

// SmallConfig returns a reduced LinksConfig suitable for unit tests and
// cmd/experiments -quick: same structure, two orders of magnitude less
// work.
func SmallConfig() LinksConfig {
	return LinksConfig{
		Routes:    4000,
		Flows:     1500,
		Intervals: 96, // 8 hours of 5-minute slots
		Interval:  5 * time.Minute,
		Seed:      7,
	}
}
