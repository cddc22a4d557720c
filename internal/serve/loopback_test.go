package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netflow"
	"repro/internal/scheme"
	"repro/internal/trace"
)

// TestLoopbackEquivalence is the serving subsystem's acceptance test:
// synthetic traffic goes through the router-model flow cache
// (netflow.Exporter), the resulting v5 datagrams travel through a real
// UDP socket into a running daemon, and the elephant sets the HTTP API
// reports per interval must equal what the batch pipeline computes from
// the very same datagrams — at every ingest reader count, pinning that
// the sharded REUSEPORT front-end preserves per-link record order (one
// exporter socket hashes to one reader), and once more with the
// SO_REUSEPORT hook refusing, where four readers asked for must come
// down to one reader on one socket (readers sharing a socket could hand
// one exporter's datagrams to its link out of order). Alongside,
// /metrics must report zero decode errors and zero late drops for the
// run. Run with -race: the test exercises the full ingest/store/HTTP
// concurrency.
func TestLoopbackEquivalence(t *testing.T) {
	const (
		intervals = 5
		interval  = 30 * time.Second
	)
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

	table, err := bgp.Generate(bgp.GenConfig{Routes: 1200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Name:        "edge",
		Profile:     trace.FlatProfile(),
		MeanLoadBps: 2e5,
		Flows:       120,
		Table:       table,
		Seed:        21,
	})
	if err != nil {
		t.Fatal(err)
	}
	series := link.GenerateSeries(start, interval, intervals)
	var capture bytes.Buffer
	if _, err := trace.NewPacketEmitter(22).Emit(&capture, series); err != nil {
		t.Fatal(err)
	}

	// Router model: flow cache → datagrams. Each emitted datagram is
	// kept as its wire bytes (what travels over UDP) and simultaneously
	// attributed into the batch reference series.
	refSeries := agg.NewSeries(start, interval, intervals+2)
	var refRecords, refUnrouted uint64
	var recs []agg.Record
	var wires [][]byte
	exporter := netflow.NewExporter(netflow.ExporterConfig{
		ActiveTimeout:   30 * time.Second,
		InactiveTimeout: 10 * time.Second,
	}, func(dg *netflow.Datagram) error {
		wire, err := dg.Encode(nil)
		if err != nil {
			return err
		}
		wires = append(wires, append([]byte(nil), wire...))
		var unrouted int
		recs, unrouted = netflow.AttributeDatagram(table, dg, recs[:0])
		refRecords += uint64(len(dg.Records))
		refUnrouted += uint64(unrouted)
		for _, rec := range recs {
			refSeries.AddRecord(rec)
		}
		return nil
	})
	src, err := agg.NewPcapPacketSource(bytes.NewReader(capture.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		ts, sum, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := exporter.AddPacket(ts, sum); err != nil {
			t.Fatal(err)
		}
	}
	if err := exporter.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wires) == 0 {
		t.Fatal("exporter produced no datagrams")
	}

	// Batch reference: the engine over the collected series.
	sp := scheme.MustParse("load+latent")
	batch, err := (&engine.MultiLinkEngine{}).Run([]engine.Link{
		{ID: "ref", Series: refSeries, Config: sp.Factory()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil {
		t.Fatal(batch[0].Err)
	}
	ref := batch[0].Results

	// A platform without SO_REUSEPORT runs one reader at every count.
	probe, err := listenUDP("127.0.0.1:0", 2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	reusePort := len(probe) == 2
	for _, c := range probe {
		c.Close()
	}
	for _, readers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			want := readers
			if !reusePort {
				want = 1
			}
			loopbackRun(t, table, sp, wires, ref, refRecords, refUnrouted, start, interval, intervals, readers, want)
		})
	}
	t.Run("readers=4 without SO_REUSEPORT", func(t *testing.T) {
		reusePortControl = func(string, string, syscall.RawConn) error { return errors.ErrUnsupported }
		defer func() { reusePortControl = controlReusePort }()
		loopbackRun(t, table, sp, wires, ref, refRecords, refUnrouted, start, interval, intervals, 4, 1)
	})
}

// loopbackRun drives one daemon instance (asked for readers readers,
// expected to run wantReaders) with the pre-captured wire datagrams and
// asserts API ≡ batch.
func loopbackRun(t *testing.T, table *bgp.Table, sp *scheme.Spec, wires [][]byte,
	ref []core.Result, refRecords, refUnrouted uint64,
	start time.Time, interval time.Duration, intervals, readers, wantReaders int) {
	// The daemon under test, anchored at the same interval origin.
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   sp,
		Readers:  readers,
		Interval: interval,
		Start:    start,
		History:  64,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Readers(); got != wantReaders {
		t.Fatalf("Readers() = %d, want %d", got, wantReaders)
	}
	if got := d.ReusePort(); got != (wantReaders > 1) {
		t.Fatalf("ReusePort() = %v with %d readers", got, wantReaders)
	}
	d.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer d.Shutdown(ctx)
	base := "http://" + d.HTTPAddr().String()

	conn, err := net.Dial("udp", d.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, wire := range wires {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			time.Sleep(2 * time.Millisecond) // stay under the socket buffer
		}
	}

	// Wait until every datagram has been pulled off the socket.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var h Health
		getJSON(t, base+"/healthz", &h)
		if h.Status != "ok" {
			t.Fatalf("healthz status %q", h.Status)
		}
		if h.Datagrams >= uint64(len(wires)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon ingested %d of %d datagrams before deadline", h.Datagrams, len(wires))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drain: close remaining intervals and flush final state. The API
	// keeps serving the completed run.
	if err := d.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}

	var page LinksPage
	getJSON(t, base+"/links", &page)
	if len(page.Links) != 1 {
		t.Fatalf("links = %+v, want exactly one", page.Links)
	}
	if len(page.Readers) != wantReaders {
		t.Fatalf("reader rows = %d, want %d", len(page.Readers), wantReaders)
	}
	var readerDatagrams uint64
	for _, rs := range page.Readers {
		readerDatagrams += rs.Datagrams
		if rs.DecodeErrors != 0 {
			t.Errorf("reader %d: %d decode errors", rs.Reader, rs.DecodeErrors)
		}
		if rs.ReceiveBufferBytes <= 0 {
			t.Errorf("reader %d: effective receive buffer %d, want > 0 readback", rs.Reader, rs.ReceiveBufferBytes)
		}
	}
	if readerDatagrams != uint64(len(wires)) {
		t.Errorf("per-reader datagrams sum to %d, want %d", readerDatagrams, len(wires))
	}
	ls := page.Links[0]
	if ls.ID != "127.0.0.1@0" {
		t.Errorf("link ID = %q, want 127.0.0.1@0", ls.ID)
	}
	if ls.Error != "" {
		t.Fatalf("link failed: %s", ls.Error)
	}
	if ls.Ingest.Datagrams != uint64(len(wires)) {
		t.Errorf("link datagrams = %d, want %d", ls.Ingest.Datagrams, len(wires))
	}
	if ls.Ingest.Records != refRecords {
		t.Errorf("link records = %d, the reference saw %d", ls.Ingest.Records, refRecords)
	}
	if ls.Ingest.Unrouted != refUnrouted {
		t.Errorf("unrouted = %d, the reference saw %d", ls.Ingest.Unrouted, refUnrouted)
	}

	// Per-interval equivalence through the API: every closed interval's
	// elephant set must match the batch pipeline's.
	var hist HistoryPage
	getJSON(t, base+"/links/"+ls.ID+"/history?flows=1", &hist)
	if len(hist.Entries) == 0 {
		t.Fatal("no closed intervals in history")
	}
	if len(hist.Entries) > len(ref) {
		t.Fatalf("daemon closed %d intervals, batch has %d", len(hist.Entries), len(ref))
	}
	if len(hist.Entries) < intervals {
		t.Errorf("daemon closed %d intervals, want >= %d", len(hist.Entries), intervals)
	}
	for _, e := range hist.Entries {
		want := ref[e.Interval]
		wantFlows := make([]string, 0, want.Elephants.Len())
		for _, p := range want.Elephants.Flows() {
			wantFlows = append(wantFlows, p.String())
		}
		if fmt.Sprint(e.Flows) != fmt.Sprint(wantFlows) {
			t.Errorf("interval %d: elephants %v, batch says %v", e.Interval, e.Flows, wantFlows)
		}
		if e.Elephants != want.ElephantCount() {
			t.Errorf("interval %d: count %d, batch %d", e.Interval, e.Elephants, want.ElephantCount())
		}
		if at := start.Add(time.Duration(e.Interval) * interval); !e.Start.Equal(at) {
			t.Errorf("interval %d: start %v, want %v", e.Interval, e.Start, at)
		}
	}

	// The current set is the last closed interval's.
	var cur Elephants
	getJSON(t, base+"/links/"+ls.ID+"/elephants", &cur)
	lastEntry := hist.Entries[len(hist.Entries)-1]
	if cur.Interval != lastEntry.Interval {
		t.Errorf("current interval = %d, want %d", cur.Interval, lastEntry.Interval)
	}
	if fmt.Sprint(cur.Flows) != fmt.Sprint(lastEntry.Flows) {
		t.Errorf("current flows %v != history tail %v", cur.Flows, lastEntry.Flows)
	}

	// Metrics: a clean run means zero decode errors and zero drops.
	metrics := getBody(t, base+"/metrics")
	for _, want := range []string{
		"elephantd_decode_errors_total 0",
		`elephantd_link_late_records_total{link="127.0.0.1@0"} 0`,
		`elephantd_link_far_future_total{link="127.0.0.1@0"} 0`,
		fmt.Sprintf(`elephantd_link_intervals_closed_total{link="127.0.0.1@0"} %d`, len(hist.Entries)),
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body)
}
