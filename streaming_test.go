package repro

// Batch ≡ stream on the two real ingest substrates: records decoded from
// a pcap capture, and records a NetFlow flow cache exported, classified
// by engine.RunStreaming must be byte-identical to the same records
// collected into an agg.Series and stepped by the sequential reference.
// Generated record sequences go down every path in internal/engine's
// FuzzEquivalence.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/enginetest"
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

// runBatchRecords collects a record source into a series and classifies
// it sequentially — the batch reference.
func runBatchRecords(t *testing.T, src agg.RecordSource, intervals int, interval time.Duration) []core.Result {
	t.Helper()
	s := agg.NewSeries(eqStart, interval, intervals)
	if _, err := agg.Collect(src, s); err != nil {
		t.Fatal(err)
	}
	results, err := enginetest.Sequential(s, eqScheme)
	if err != nil {
		t.Fatal(err)
	}
	return results
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
