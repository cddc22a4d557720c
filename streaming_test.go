package repro

// The batch-vs-stream equivalence contract, end to end on every ingest
// substrate: classifications produced by the streaming path
// (RecordSource -> StreamAccumulator -> Pipeline.StepSnapshot, driven
// through engine.RunStreaming) must be byte-identical to the same
// records collected into an agg.Series and classified by the sequential
// oracle (one core pipeline stepped over plain snapshots, no engine
// code) or by engine.Run. Run with -race: the multi-link variants
// exercise the concurrent pool.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netflow"
	"repro/internal/trace"
)

var eqStart = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

// eqScheme is the paper scheme (constant load + latent heat) with fresh
// state per call, as the engine requires.
func eqScheme() (core.Config, error) {
	det, err := core.NewConstantLoadDetector(0.8)
	if err != nil {
		return core.Config{}, err
	}
	lh, err := core.NewLatentHeatClassifier(4)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Detector: det, Alpha: 0.5, Classifier: lh, MinFlows: 8}, nil
}

// sequential is the oracle every engine path is compared against: one
// pipeline built straight on core and stepped over the series' plain
// snapshots — no flow IDs, no engine code.
func sequential(t *testing.T, s *agg.Series, factory func() (core.Config, error)) []core.Result {
	t.Helper()
	cfg, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *core.FlowSnapshot
	results := make([]core.Result, 0, s.Intervals)
	for tt := 0; tt < s.Intervals; tt++ {
		snap = s.Snapshot(tt, snap)
		res, err := pipe.Step(snap)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// runBatchRecords collects a record source into a series and classifies
// it sequentially — the batch reference.
func runBatchRecords(t *testing.T, src agg.RecordSource, intervals int, interval time.Duration) []core.Result {
	t.Helper()
	s := agg.NewSeries(eqStart, interval, intervals)
	if _, err := agg.Collect(src, s); err != nil {
		t.Fatal(err)
	}
	return sequential(t, s, eqScheme)
}

// runStreamRecords classifies a record source live through the
// bounded-memory streaming path.
func runStreamRecords(t *testing.T, src agg.RecordSource, interval time.Duration, window int) []core.Result {
	t.Helper()
	eng := engine.MultiLinkEngine{Workers: 1}
	lrs, err := eng.RunStreaming([]engine.StreamLink{{
		ID: "stream", Source: src, Start: eqStart, Interval: interval, Window: window, Config: eqScheme,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if lrs[0].Err != nil {
		t.Fatal(lrs[0].Err)
	}
	return lrs[0].Results
}

func requireIdentical(t *testing.T, substrate string, batch, stream []core.Result) {
	t.Helper()
	if len(stream) != len(batch) {
		t.Fatalf("%s: %d streamed intervals vs %d batch", substrate, len(stream), len(batch))
	}
	for i := range batch {
		if !reflect.DeepEqual(batch[i], stream[i]) {
			t.Fatalf("%s: interval %d diverges:\nbatch:  %+v\nstream: %+v", substrate, i, batch[i], stream[i])
		}
	}
}

// emitCapture synthesises a link and emits its traffic as a pcap
// capture.
func emitCapture(t *testing.T, table *bgp.Table, intervals int, interval time.Duration) []byte {
	t.Helper()
	link, err := trace.NewLink(trace.LinkConfig{
		Table: table, Flows: 300, MeanLoadBps: 2e6, Seed: 50,
		Profile: trace.FlatProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	series := link.GenerateSeries(eqStart, interval, intervals)
	var buf bytes.Buffer
	if _, err := trace.NewPacketEmitter(51).Emit(&buf, series); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamEquivalencePcap: packet ingestion, batch vs stream.
func TestStreamEquivalencePcap(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 1200, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	const intervals = 8
	interval := time.Minute
	capture := emitCapture(t, table, intervals, interval)

	mkSource := func() agg.RecordSource {
		src, err := agg.NewPacketRecordSource(bytes.NewReader(capture), table)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	batch := runBatchRecords(t, mkSource(), intervals, interval)
	stream := runStreamRecords(t, mkSource(), interval, 3)
	requireIdentical(t, "pcap", batch, stream)
}

// TestStreamEquivalenceNetFlow: flow-record ingestion, batch vs stream.
// The records come out of a real flow cache (active/inactive timeouts)
// and reach back in time, so the accumulator window must cover the
// export lag.
func TestStreamEquivalenceNetFlow(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 1200, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	const intervals = 6
	interval := time.Minute
	capture := emitCapture(t, table, intervals, interval)

	var framed bytes.Buffer
	sw := netflow.NewStreamWriter(&framed)
	exp := netflow.NewExporter(netflow.ExporterConfig{
		ActiveTimeout: 30 * time.Second, InactiveTimeout: 10 * time.Second,
	}, sw.Write)
	psrc, err := agg.NewPcapPacketSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	for {
		ts, sum, err := psrc.Next()
		if err != nil {
			break
		}
		if err := exp.AddPacket(ts, sum); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}

	mkSource := func() agg.RecordSource {
		return netflow.NewRecordSource(netflow.NewStreamReader(bytes.NewReader(framed.Bytes())), table)
	}
	batch := runBatchRecords(t, mkSource(), intervals, interval)
	stream := runStreamRecords(t, mkSource(), interval, 8)
	requireIdentical(t, "netflow", batch, stream)
}

// TestStreamEquivalenceSynthetic: the generator's incremental mode,
// batch vs stream, including the full multi-link engine on both sides.
func TestStreamEquivalenceSynthetic(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 1500, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	const intervals = 16
	interval := 5 * time.Minute
	mkSource := func(seed int64) agg.RecordSource {
		link, err := trace.NewLink(trace.LinkConfig{
			Table: table, Flows: 400, MeanLoadBps: 5e6, Seed: seed,
			Profile: trace.WestCoastProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return link.Stream(eqStart, interval, intervals)
	}

	seeds := []int64{52, 53, 54}
	batchLinks := make([]engine.Link, len(seeds))
	streamLinks := make([]engine.StreamLink, len(seeds))
	for i, seed := range seeds {
		s := agg.NewSeries(eqStart, interval, intervals)
		if _, err := agg.Collect(mkSource(seed), s); err != nil {
			t.Fatal(err)
		}
		batchLinks[i] = engine.Link{ID: string(rune('a' + i)), Series: s, Config: eqScheme}
		streamLinks[i] = engine.StreamLink{
			ID: string(rune('a' + i)), Source: mkSource(seed),
			Start: eqStart, Interval: interval, Window: 4, Config: eqScheme,
		}
	}
	eng := engine.MultiLinkEngine{Workers: 3}
	want, err := eng.Run(batchLinks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunStreaming(streamLinks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("link %s: errs %v / %v", want[i].ID, want[i].Err, got[i].Err)
		}
		requireIdentical(t, "synthetic/"+want[i].ID, want[i].Results, got[i].Results)
	}
}
