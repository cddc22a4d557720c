package serve

import (
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
	"repro/internal/core"
	"repro/internal/enginetest"
	"repro/internal/scheme"
)

// TestLoopbackEquivalence is the serving subsystem's acceptance test: a
// generated v5 link (enginetest: records out of order, duplicated, before
// the origin, behind the sealed edge and past the far-future gate, with
// unrouted ones among them) travels as NetFlow datagrams through a real
// UDP socket into a running daemon, and the elephant sets the HTTP API
// reports per interval must equal the sequential reference on the same
// records — at every ingest reader count, pinning that the sharded
// REUSEPORT front-end preserves per-link record order (one exporter
// socket hashes to one reader), and once more with the SO_REUSEPORT hook
// refusing, where four readers asked for must come down to one reader on
// one socket (readers sharing a socket could hand one exporter's
// datagrams to its link out of order). Alongside, /metrics must report
// zero decode errors and the reference's late and far-future drops. Run
// with -race: the test exercises the full ingest/store/HTTP concurrency.
func TestLoopbackEquivalence(t *testing.T) {
	c := enginetest.Generate(5, []byte("\x8f\x0c\x0c\x02\x01\x18"))
	sp := scheme.MustParse("load+latent")
	sp.MinFlows = 4
	series, stats := c.Reference()
	ref, err := enginetest.Sequential(series, sp.Factory())
	if err != nil {
		t.Fatal(err)
	}
	wires := c.Datagrams()

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
			loopbackRun(t, c, sp, wires, ref, stats, readers, want)
		})
	}
	t.Run("readers=4 without SO_REUSEPORT", func(t *testing.T) {
		reusePortControl = func(string, string, syscall.RawConn) error { return errors.ErrUnsupported }
		defer func() { reusePortControl = controlReusePort }()
		loopbackRun(t, c, sp, wires, ref, stats, 4, 1)
	})
}

// loopbackRun drives one daemon instance (asked for readers readers,
// expected to run wantReaders) with c's wire datagrams and asserts API ≡
// the reference.
func loopbackRun(t *testing.T, c enginetest.Case, sp *scheme.Spec, wires [][]byte,
	ref []core.Result, stats agg.StreamStats, readers, wantReaders int) {
	// The daemon under test, anchored at the same interval origin.
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    c.Table,
		Scheme:   sp,
		Readers:  readers,
		Interval: c.Interval,
		Window:   c.Window,
		Start:    c.Start,
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
	if in := ls.Ingest; in.Records != uint64(len(c.Wire)) || in.Routed != uint64(len(c.Records)) {
		t.Errorf("link ingest %+v, want %d records, %d routed", in, len(c.Wire), len(c.Records))
	}

	// Per-interval equivalence through the API: every closed interval's
	// elephant set must match the reference's.
	var hist HistoryPage
	getJSON(t, base+"/links/"+ls.ID+"/history?flows=1", &hist)
	if len(hist.Entries) != len(ref) {
		t.Fatalf("daemon closed %d intervals, the reference %d", len(hist.Entries), len(ref))
	}
	for _, e := range hist.Entries {
		want := ref[e.Interval]
		wantFlows := make([]string, 0, want.Elephants.Len())
		for _, p := range want.Elephants.Flows() {
			wantFlows = append(wantFlows, p.String())
		}
		if fmt.Sprint(e.Flows) != fmt.Sprint(wantFlows) {
			t.Errorf("interval %d: elephants %v, the reference says %v", e.Interval, e.Flows, wantFlows)
		}
		if e.Elephants != want.ElephantCount() {
			t.Errorf("interval %d: count %d, the reference %d", e.Interval, e.Elephants, want.ElephantCount())
		}
		if at := c.Origin().Add(time.Duration(e.Interval) * c.Interval); !e.Start.Equal(at) {
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

	// Metrics: no decode errors, and the reference's drops.
	metrics := getBody(t, base+"/metrics")
	for _, want := range []string{
		"elephantd_decode_errors_total 0",
		fmt.Sprintf(`elephantd_link_late_records_total{link="127.0.0.1@0"} %d`, stats.Late),
		fmt.Sprintf(`elephantd_link_far_future_total{link="127.0.0.1@0"} %d`, stats.FarFuture),
		fmt.Sprintf(`elephantd_link_intervals_closed_total{link="127.0.0.1@0"} %d`, stats.Closed),
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
