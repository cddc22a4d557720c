package trace_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// requireSameSeries holds got to want exactly: the same flows in the
// same row order, every cell and every interval total equal under ==.
func requireSameSeries(t *testing.T, ctx string, got, want *agg.Series) {
	t.Helper()
	if got.Intervals != want.Intervals || got.Interval != want.Interval || !got.Start.Equal(want.Start) {
		t.Fatalf("%s: geometry %v×%d from %v, oracle %v×%d from %v", ctx, got.Interval, got.Intervals, got.Start, want.Interval, want.Intervals, want.Start)
	}
	if !slices.Equal(got.Flows(), want.Flows()) {
		t.Fatalf("%s: %d flows, oracle %d, or in another row order", ctx, got.NumFlows(), want.NumFlows())
	}
	for _, p := range want.Flows() {
		g, _ := got.Row(p)
		w, _ := want.Row(p)
		if !slices.Equal(g, w) {
			t.Fatalf("%s: flow %v differs from the oracle's row", ctx, p)
		}
	}
	for ti := 0; ti < want.Intervals; ti++ {
		if g, w := got.TotalBandwidth(ti), want.TotalBandwidth(ti); g != w {
			t.Fatalf("%s: total[%d] = %v, oracle %v", ctx, ti, g, w)
		}
	}
}

// TestGenerateSeriesMatchesPerCellOracle: block-buffered, row-indexed
// generation builds exactly the series the per-cell loop builds, at
// interval counts below, at, just past and far from a multiple of the
// block — a flow whose first positive cell falls mid-block must still
// get its row in interval-major order.
func TestGenerateSeriesMatchesPerCellOracle(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.LinkConfig{
		Profile: trace.WestCoastProfile(), MeanLoadBps: 50e6, Flows: 700, Table: table, Seed: 5,
		// Short on-periods and long idles: rows keep appearing all run.
		MeanOnIntervals: 2, MeanOffIntervals: 30,
	}
	for _, intervals := range []int{1, 7, 8, 9, 64, 101} {
		got, err := trace.NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSeries(t, fmt.Sprintf("%d intervals", intervals),
			got.GenerateSeries(experiments.TraceStart, 5*time.Minute, intervals),
			want.GenerateSeriesPerCell(experiments.TraceStart, 5*time.Minute, intervals))
	}
}

// TestBuildLinksMatchesPerCellOracle: the two links BuildLinks
// generates side by side are the two the serial per-cell loop builds
// from the same table and seeds (west Seed+100, east Seed+200, 0.9 of
// the load over 5/6 of the flows) — whatever GOMAXPROCS is, at
// SmallConfig and at a prime interval count.
func TestBuildLinksMatchesPerCellOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	small, prime := experiments.SmallConfig(), experiments.SmallConfig()
	prime.Intervals = 101
	for _, cfg := range []experiments.LinksConfig{small, prime} {
		cfg.MeanLoadBps = 300e6
		table, err := bgp.Generate(bgp.GenConfig{Routes: cfg.Routes, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		oracle := func(lc trace.LinkConfig) *agg.Series {
			lc.Table = table
			l, err := trace.NewLink(lc)
			if err != nil {
				t.Fatal(err)
			}
			return l.GenerateSeriesPerCell(experiments.TraceStart, cfg.Interval, cfg.Intervals)
		}
		west := oracle(trace.LinkConfig{Profile: trace.WestCoastProfile(), MeanLoadBps: cfg.MeanLoadBps, Flows: cfg.Flows, Seed: cfg.Seed + 100})
		east := oracle(trace.LinkConfig{Profile: trace.EastCoastProfile(), MeanLoadBps: cfg.MeanLoadBps * 0.9, Flows: cfg.Flows * 5 / 6, Seed: cfg.Seed + 200})
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			ls, err := experiments.BuildLinks(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%d intervals, GOMAXPROCS %d", cfg.Intervals, procs)
			requireSameSeries(t, ctx+", west", ls.West, west)
			requireSameSeries(t, ctx+", east", ls.East, east)
			if !slices.Equal(ls.Table.Routes(), table.Routes()) {
				t.Fatalf("%s: BuildLinks drew another table", ctx)
			}
		}
	}
}
