package repro

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/experiments"
	"repro/internal/scheme"
	"repro/internal/trace"
)

// TestRegistrySchemesThroughExperiments pins that every scheme the
// registry can name — the cross-product of its detector and classifier
// examples — runs through the experiments harness entry point (Classify),
// which is what the figures build on, and agrees with the sequential
// reference there. Adding a scheme to the registry enrols it here.
func TestRegistrySchemesThroughExperiments(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 1200, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Table: table, Flows: 300, MeanLoadBps: 2e6, Seed: 60,
		Profile: trace.WestCoastProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	series := link.GenerateSeries(eqStart, time.Minute, 12)
	specs := 0
	for _, det := range scheme.DetectorExamples() {
		for _, cls := range scheme.ClassifierExamples() {
			sp, err := scheme.Parse(det + "+" + cls)
			if err != nil {
				t.Fatalf("registry example %s+%s: %v", det, cls, err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("registry example %s: %v", sp, err)
			}
			sp.MinFlows = 8
			specs++
			runs, err := experiments.Classify([]engine.MatrixLink{{ID: "link", Series: series}}, []*scheme.Spec{sp})
			if err != nil {
				t.Errorf("scheme %s: %v", sp, err)
				continue
			}
			want, err := enginetest.Sequential(series, sp.Factory())
			if err != nil {
				t.Fatalf("scheme %s: %v", sp, err)
			}
			if !reflect.DeepEqual(runs[0].Results, want) {
				t.Errorf("scheme %s: Classify diverges from the sequential reference", sp)
			}
		}
	}
	if specs < 4 {
		t.Fatalf("registry shrank to %d example pairs", specs)
	}
}
