package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json's schema, key for key.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []boundedJSON  `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedJSON struct {
	metricJSON
	Bound float64 `json:"bound"`
}

const benchmarkJSONPath = "../BENCHMARK.json"

func manifestJSON(t *testing.T) []byte {
	t.Helper()
	m := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundedJSON{metricJSON{d.name, d.unit, d.better}, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metricJSON{d.name, d.unit, d.better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// BENCHMARK.json is the driver's copy of manifest.go. Regenerate it
// with BENCH_WRITE_MANIFEST=1 go test -run TestManifestMatchesBenchmarkJSON ./bench
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want := manifestJSON(t)
	if os.Getenv("BENCH_WRITE_MANIFEST") != "" {
		if err := os.WriteFile(benchmarkJSONPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of date with manifest.go; regenerate it (see the comment above this test)", benchmarkJSONPath)
	}
}

func TestManifestObeysTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("list sizes outside the contract")
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		use(d.name)
		if !unit.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract", d)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		use(d.name)
		if !unit.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") {
			t.Errorf("per-layer metric %+v outside the contract", d)
		}
	}
}
