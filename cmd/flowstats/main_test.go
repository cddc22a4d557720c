package main

import (
	"bufio"
	"bytes"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tailCapture writes the capture and table `tracegen -routes 3000
// -flows 3000 -intervals 4 -load 2e5 -profile flat -seed 3` writes: one
// whose volumes have a tail aest finds.
func tailCapture(t *testing.T) (capture, table string) {
	t.Helper()
	const seed = 3
	tbl, err := bgp.Generate(bgp.GenConfig{Routes: 3000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Name: "flat", Profile: trace.FlatProfile(), MeanLoadBps: 2e5, Flows: 3000, Table: tbl, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	capture, table = filepath.Join(dir, "trace.pcap"), filepath.Join(dir, "table.txt")
	var tb bytes.Buffer
	if err := tbl.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(table, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(capture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := trace.NewPacketEmitter(seed+1).Emit(w, link.GenerateSeries(experiments.TraceStart, 5*time.Minute, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return capture, table
}

// TestAnalysisIsDeterministic: the same capture prints the same bytes
// every run — in particular the aest and Hill lines, whose estimates
// depend on the order of the sample.
func TestAnalysisIsDeterministic(t *testing.T) {
	capture, table := tailCapture(t)
	var first, second bytes.Buffer
	if err := run(&first, capture, table, 10, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "aest: power-law tail detected") {
		t.Fatalf("the capture has no tail, so the order-sensitive lines are not printed:\n%s", first.String())
	}
	if err := run(&second, capture, table, 10, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("two runs on one capture differ:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestSampleInPrefixOrder: the analysed sample lists every prefix's
// volume once, in core.ComparePrefix order.
func TestSampleInPrefixOrder(t *testing.T) {
	volumes := map[netip.Prefix]float64{}
	for i, s := range []string{"10.2.0.0/16", "10.1.0.0/24", "192.0.2.0/24", "10.1.0.0/16", "9.0.0.0/8"} {
		volumes[netip.MustParsePrefix(s)] = float64(i + 1)
	}
	prefixes, vols := byPrefix(volumes)
	if !slices.IsSortedFunc(prefixes, core.ComparePrefix) {
		t.Errorf("sample not in prefix order: %v", prefixes)
	}
	if len(prefixes) != len(volumes) || len(vols) != len(volumes) {
		t.Fatalf("sample holds %d prefixes and %d volumes, want %d", len(prefixes), len(vols), len(volumes))
	}
	for i, p := range prefixes {
		if vols[i] != volumes[p] {
			t.Errorf("volume %d is %v, want %s's %v", i, vols[i], p, volumes[p])
		}
	}
}

// TestCCDFChartHasLogVolumeAxis: the chart's columns are evenly spaced
// in log10 volume, not in support rank. The sample's support is dense
// just above 10^3 and sparse up to 10^6, so the middle of the width is
// log volume 4.5 — deep in the sparse tail — while the middle support
// rank lies in the dense body.
func TestCCDFChartHasLogVolumeAxis(t *testing.T) {
	var vols []float64
	for i := 0; i < 1000; i++ {
		vols = append(vols, 1000+float64(i)/10) // dense: [1000, 1100)
	}
	for _, e := range []float64{3.5, 4, 5, 5.5, 6} {
		vols = append(vols, math.Pow(10, e)) // sparse tail up to 10^6
	}
	vols = append(vols, 2e6) // the maximum, which has no CCDF point
	c := stats.NewCCDF(vols)
	lo, hi, lp := logCCDF(c)
	if lo != 3 || hi != 6 {
		t.Fatalf("log volume range [%v, %v], want [3, 6]", lo, hi)
	}
	if len(lp) != chartWidth {
		t.Fatalf("%d chart points, want one per column (%d)", len(lp), chartWidth)
	}
	want := math.Log10(c.At(math.Pow(10, 4.5)))
	for _, col := range []int{chartWidth/2 - 1, chartWidth / 2} {
		if lp[col] != want {
			t.Errorf("middle column %d plots %v, want log10 P[X > 10^4.5] = %v", col, lp[col], want)
		}
	}
	if last := lp[chartWidth-1]; last != math.Log10(c.P[c.Len()-1]) {
		t.Errorf("last column plots %v, want log10 P[X > 10^6] = %v", last, math.Log10(c.P[c.Len()-1]))
	}
}
