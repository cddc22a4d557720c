package main

import (
	"bufio"
	"bytes"
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
	if err := run(&first, capture, table, 10, true, nil, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "aest: power-law tail detected") {
		t.Fatalf("the capture has no tail, so the order-sensitive lines are not printed:\n%s", first.String())
	}
	if err := run(&second, capture, table, 10, true, nil, 5*time.Minute); err != nil {
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
