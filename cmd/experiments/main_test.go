package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scheme"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

// TestQuickGolden pins the whole reproduction record at reduced scale:
// `experiments -quick -seed 1` stdout (charts on) and the three figure
// CSVs, byte for byte. The testdata files were generated by the code as
// it stood before internal/experiments was folded into one run helper
// and one summary; `go test ./cmd/experiments -update` regenerates them
// when a change to the output is intended.
func TestQuickGolden(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	sections, err := experiments.SelectSections(scheme.MustParse("load+latent"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&stdout, true, sections, dir, 1, true); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{"quick_seed1.txt": stdout.Bytes()}
	for _, name := range []string{"fig1a.csv", "fig1b.csv", "fig1c.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got[name] = b
	}
	for name, b := range got {
		golden := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(golden, b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s differs from %s (%d vs %d bytes); rerun with -update if the change is intended",
				name, golden, len(b), len(want))
		}
	}
}
