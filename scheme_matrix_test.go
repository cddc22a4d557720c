package repro

// The registry-wide equivalence contract: every scheme spec the
// registry can name — the cross-product of all registered detector and
// classifier examples — must run end to end through both the batch
// engine path (engine.RunMatrix over a generated series) and the
// streaming path (engine.RunStreaming, one cell per spec, over the
// synthetic generator's incremental record stream) with byte-identical
// results.
// Adding a scheme to the registry's components table automatically
// enrols it here; a scheme that only works in one ingestion mode cannot
// land. Run with -race: the matrix fans out on the concurrent pool.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scheme"
	"repro/internal/trace"
)

// matrixLinkConfig builds the synthetic link the matrix runs over. A
// fresh trace.Link per generation pass: GenerateSeries and Stream both
// consume the link's RNG state.
func matrixLinkConfig(t testing.TB, table *bgp.Table) trace.LinkConfig {
	t.Helper()
	return trace.LinkConfig{
		Table: table, Flows: 300, MeanLoadBps: 2e6, Seed: 60,
		Profile: trace.WestCoastProfile(),
	}
}

// registrySpecs enumerates every detector×classifier example pair from
// the registry, with a test-scale MinFlows so sparse early intervals
// still classify.
func registrySpecs(t testing.TB) []*scheme.Spec {
	t.Helper()
	var specs []*scheme.Spec
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
			specs = append(specs, sp)
		}
	}
	if len(specs) < 4 {
		t.Fatalf("registry shrank to %d example pairs", len(specs))
	}
	return specs
}

func TestRegistryBatchStreamEquivalence(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 1200, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	cfg := matrixLinkConfig(t, table)
	const intervals = 30
	interval := time.Minute

	// Batch reference: the same record stream every streaming cell
	// replays, collected into one series shared by every spec ("the
	// same records" is the equivalence contract — a record stream
	// round-trips each bandwidth through bits, so it is compared
	// against its own collection, exactly as a live deployment would
	// see it).
	mkStream := func() (agg.RecordSource, error) {
		l, err := trace.NewLink(cfg)
		if err != nil {
			return nil, err
		}
		return l.Stream(eqStart, interval, intervals), nil
	}
	src, err := mkStream()
	if err != nil {
		t.Fatal(err)
	}
	series := agg.NewSeries(eqStart, interval, intervals)
	if _, err := agg.Collect(src, series); err != nil {
		t.Fatal(err)
	}

	specs := registrySpecs(t)
	eng := engine.MultiLinkEngine{}
	batch, err := eng.RunMatrix([]engine.MatrixLink{{ID: "synth", Series: series}}, specs)
	if err != nil {
		t.Fatal(err)
	}

	// Streaming twin: every (link, spec) cell opens a fresh
	// identically-seeded incremental generator; the accumulator window
	// derives from each spec.
	cells := make([]engine.StreamLink, len(specs))
	for i, sp := range specs {
		src, err := mkStream()
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = engine.StreamLink{
			ID: engine.MatrixID("synth", sp), Source: src, Start: eqStart, Interval: interval,
			Window: engine.StreamWindow(sp, 0), Config: sp.Factory(),
		}
	}
	stream, err := eng.RunStreaming(cells)
	if err != nil {
		t.Fatal(err)
	}

	if len(batch) != len(specs) || len(stream) != len(specs) {
		t.Fatalf("cells: batch %d, stream %d, want %d", len(batch), len(stream), len(specs))
	}
	for i := range batch {
		if batch[i].ID != stream[i].ID {
			t.Fatalf("cell order diverges: %q vs %q", batch[i].ID, stream[i].ID)
		}
		if batch[i].Err != nil {
			t.Errorf("cell %s: batch: %v", batch[i].ID, batch[i].Err)
			continue
		}
		if stream[i].Err != nil {
			t.Errorf("cell %s: stream: %v", stream[i].ID, stream[i].Err)
			continue
		}
		if len(batch[i].Results) != intervals {
			t.Errorf("cell %s: %d batch intervals, want %d", batch[i].ID, len(batch[i].Results), intervals)
		}
		if !reflect.DeepEqual(batch[i].Results, stream[i].Results) {
			for j := range batch[i].Results {
				if !reflect.DeepEqual(batch[i].Results[j], stream[i].Results[j]) {
					t.Errorf("cell %s: interval %d diverges:\nbatch:  %+v\nstream: %+v",
						batch[i].ID, j, batch[i].Results[j], stream[i].Results[j])
					break
				}
			}
		}
	}
}

// TestRegistrySchemesThroughExperiments pins that every registered
// scheme also runs through the experiments harness entry point
// (Classify), which is what the figures build on.
func TestRegistrySchemesThroughExperiments(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 1200, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	cfg := matrixLinkConfig(t, table)
	link, err := trace.NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := link.GenerateSeries(eqStart, time.Minute, 12)
	for _, sp := range registrySpecs(t) {
		runs, err := experiments.Classify([]engine.MatrixLink{{ID: "link", Series: series}}, []*scheme.Spec{sp})
		if err != nil {
			t.Errorf("scheme %s: %v", sp, err)
			continue
		}
		if !reflect.DeepEqual(runs[0].Results, sequential(t, series, sp.Factory())) {
			t.Errorf("scheme %s: Classify diverges from the sequential oracle", sp)
		}
	}
}
