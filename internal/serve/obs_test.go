package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/netflow"
	"repro/internal/report/reporttest"
	"repro/internal/scheme"
)

// obsTable builds a one-route table covering the synthetic records the
// observability tests emit (dst 10.0.0.x).
func obsTable(t *testing.T) *bgp.Table {
	t.Helper()
	table := bgp.NewTable()
	if err := table.Insert(bgp.Route{Prefix: pfx("10.0.0.0/24"), OriginAS: 65000}); err != nil {
		t.Fatal(err)
	}
	return table
}

// v5wire encodes a single-record NetFlow v5 datagram whose record is
// stamped at `at` (header clock = record time, zero uptime offsets) and
// demultiplexes to the link identified by engine.
func v5wire(t *testing.T, engine uint8, at time.Time, octets uint32) []byte {
	t.Helper()
	dg := netflow.Datagram{
		Header: netflow.Header{
			Count:    1,
			UnixSecs: uint32(at.Unix()),
			EngineID: engine,
		},
		Records: []netflow.Record{{
			SrcAddr: netip.MustParseAddr("10.0.0.9"),
			DstAddr: netip.MustParseAddr("10.0.0.5"),
			Packets: 1,
			Octets:  octets,
		}},
	}
	wire, err := dg.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// newObsDaemon builds and starts a daemon on loopback with the
// observability-test table and any Config mutations applied.
func newObsDaemon(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	// MinFlows -1 forces detection even on sparse or empty intervals:
	// the synthetic feeds here carry one flow per interval, far below
	// the default floor, and a frozen pipeline would hide the metrics
	// under test.
	sp := scheme.MustParse("load")
	sp.MinFlows = -1
	cfg := Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    obsTable(t),
		Scheme:   sp,
		Interval: time.Minute,
		Start:    time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC),
		Logf:     t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return d
}

// decodeTraces parses a /debug/intervals body, one IntervalTrace a line.
func decodeTraces(t *testing.T, body string) []IntervalTrace {
	t.Helper()
	var traces []IntervalTrace
	for dec := json.NewDecoder(strings.NewReader(body)); dec.More(); {
		var tr IntervalTrace
		if err := dec.Decode(&tr); err != nil {
			t.Fatalf("debug intervals line %d: %v", len(traces), err)
		}
		traces = append(traces, tr)
	}
	return traces
}

// sendWires writes each datagram to the daemon's UDP socket and waits
// until the ingest counters account for all of them.
func sendWires(t *testing.T, d *Daemon, wires [][]byte) {
	t.Helper()
	conn, err := net.Dial("udp", d.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before uint64
	for _, r := range d.readers {
		before += r.datagrams.Load()
	}
	for _, w := range wires {
		if _, err := conn.Write(w); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _, _ := d.ingestTotals()
		if got >= before+uint64(len(wires)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d datagrams, want %d more than %d", got, len(wires), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsObservabilityFamilies drives real datagrams through a
// daemon, drains it, and checks the whole observability surface in one
// pass: /metrics carries the registry families (stage histograms,
// churn counters, threshold and watermark-lag gauges) and passes the
// exposition lint; /links/{id}/debug/intervals serves the history ring
// as parsable JSONL trace lines.
func TestMetricsObservabilityFamilies(t *testing.T) {
	d := newObsDaemon(t, nil)
	start := d.cfg.Start
	var wires [][]byte
	for i := 0; i < 5; i++ {
		wires = append(wires, v5wire(t, 0, start.Add(time.Duration(i)*time.Minute+30*time.Second), 1000+100*uint32(i)))
	}
	sendWires(t, d, wires)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}

	base := "http://" + d.HTTPAddr().String()
	const link = "127.0.0.1@0"
	metrics := getBody(t, base+"/metrics")
	if err := reporttest.LintExposition(strings.NewReader(metrics)); err != nil {
		t.Errorf("metrics page fails exposition lint: %v\n%s", err, metrics)
	}
	for _, want := range []string{
		"# TYPE elephantd_step_duration_seconds histogram",
		"elephantd_step_duration_seconds_bucket{link=\"" + link + "\",le=\"+Inf\"} 5",
		"elephantd_step_duration_seconds_count{link=\"" + link + "\"} 5",
		"# TYPE elephantd_detect_duration_seconds histogram",
		"# TYPE elephantd_classify_duration_seconds histogram",
		"elephantd_link_promoted_total{link=\"" + link + "\"} 1",
		"elephantd_link_demoted_total{link=\"" + link + "\"} 0",
		"elephantd_link_raw_threshold_bps{link=\"" + link + "\"}",
		"elephantd_link_watermark_lag_seconds{link=\"" + link + "\"} 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Every sealed interval has its trace line, oldest first.
	body := getBody(t, base+"/links/"+link+"/debug/intervals")
	traces := decodeTraces(t, body)
	if len(traces) != 5 {
		t.Fatalf("debug intervals has %d traces, want 5:\n%s", len(traces), body)
	}
	for i, tr := range traces {
		if tr.Interval != i {
			t.Errorf("trace %d: interval %d, want %d", i, tr.Interval, i)
		}
		if tr.StepNanos <= 0 || tr.SealedUnixNanos <= 0 {
			t.Errorf("trace %d: missing timings: %+v", i, tr)
		}
		if tr.ActiveFlows != 1 {
			t.Errorf("trace %d: active flows %d, want 1", i, tr.ActiveFlows)
		}
	}
	if traces[0].Promoted != 1 || traces[0].WatermarkLagNanos <= 0 {
		t.Errorf("first trace = %+v, want one promotion and positive seal-time lag", traces[0])
	}

	resp, err := http.Get(base + "/links/nope@0/debug/intervals")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("debug intervals for unknown link = %s, want 404", resp.Status)
	}
}

// TestDebugIntervalsAgreeWithHistory: a closed interval is recorded once,
// so its three readings cannot differ. Eight flows whose two heavy
// members rotate every interval go over loopback into a daemon; then,
// interval by interval, the /debug/intervals line and the /history
// entry carry the same interval, thresholds, loads, counts and churn,
// and the churn counters on /metrics are the history's column sums.
func TestDebugIntervalsAgreeWithHistory(t *testing.T) {
	const intervals, flows = 12, 8
	d := newObsDaemon(t, func(c *Config) {
		table := bgp.NewTable()
		for k := 0; k < flows; k++ {
			if err := table.Insert(bgp.Route{Prefix: pfx(fmt.Sprintf("10.0.%d.0/24", k)), OriginAS: 65000}); err != nil {
				t.Fatal(err)
			}
		}
		c.Table = table
	})
	var wires [][]byte
	for i := 0; i < intervals; i++ {
		at := d.cfg.Start.Add(time.Duration(i)*time.Minute + 30*time.Second)
		dg := netflow.Datagram{Header: netflow.Header{Count: flows, UnixSecs: uint32(at.Unix())}}
		for k := 0; k < flows; k++ {
			octets := uint32(1000 + 10*k)
			if k == i%flows || k == (i+3)%flows {
				octets = 60000
			}
			dg.Records = append(dg.Records, netflow.Record{
				SrcAddr: netip.MustParseAddr("10.9.9.9"),
				DstAddr: netip.AddrFrom4([4]byte{10, 0, byte(k), 5}),
				Packets: 1,
				Octets:  octets,
			})
		}
		wire, err := dg.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, wire)
	}
	sendWires(t, d, wires)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}

	base := "http://" + d.HTTPAddr().String()
	const link = "127.0.0.1@0"
	var hist HistoryPage
	getJSON(t, base+"/links/"+link+"/history", &hist)
	body := getBody(t, base+"/links/"+link+"/debug/intervals")
	traces := decodeTraces(t, body)
	// The line's keys and their order are the endpoint's contract.
	first, _, _ := strings.Cut(body, "\n")
	var keys []string
	for _, m := range regexp.MustCompile(`"([a-z_]+)":`).FindAllStringSubmatch(first, -1) {
		keys = append(keys, m[1])
	}
	if want := "interval sealed_unix_nanos detect_nanos classify_nanos finalize_nanos step_nanos raw_threshold_bps threshold_bps " +
		"total_load_bps elephant_load_bps active_flows elephants promoted demoted watermark_lag_nanos stage_overlap_nanos"; strings.Join(keys, " ") != want {
		t.Errorf("trace line keys = %v, want %s", keys, want)
	}
	if len(hist.Entries) != intervals || len(traces) != intervals {
		t.Fatalf("%d history entries and %d trace lines, want %d of each", len(hist.Entries), len(traces), intervals)
	}
	var promoted, demoted int
	for i, e := range hist.Entries {
		tr := traces[i]
		if tr.Interval != e.Interval || tr.Threshold != e.ThresholdBps ||
			tr.TotalLoad != e.TotalLoadBps || tr.ElephantLoad != e.ElephantLoadBps ||
			tr.ActiveFlows != e.ActiveFlows || tr.Elephants != e.Elephants ||
			tr.Promoted != e.Promoted || tr.Demoted != e.Demoted {
			t.Errorf("interval %d: trace line %+v disagrees with history entry %+v", i, tr, e)
		}
		if tr.RawThreshold <= 0 || tr.StepNanos <= 0 {
			t.Errorf("interval %d: trace line lacks its own columns: %+v", i, tr)
		}
		promoted += e.Promoted
		demoted += e.Demoted
	}
	if promoted < intervals/2 || demoted < intervals/2 {
		t.Fatalf("history sums to churn +%d/-%d over %d intervals: the feed was meant to rotate the set", promoted, demoted, intervals)
	}
	metrics := getBody(t, base+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("elephantd_link_promoted_total{link=%q} %d\n", link, promoted),
		fmt.Sprintf("elephantd_link_demoted_total{link=%q} %d\n", link, demoted),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q, the sum over /history", want)
		}
	}
}

// TestMetricsPipelineFamilies checks the live-pipeline surface: /metrics
// carries the stall counter and the stage-overlap histogram, /links
// reports one pipeline row per link, and the trace lines carry the
// stage-overlap column.
func TestMetricsPipelineFamilies(t *testing.T) {
	d := newObsDaemon(t, nil)
	start := d.cfg.Start
	var wires [][]byte
	for i := 0; i < 5; i++ {
		wires = append(wires, v5wire(t, 0, start.Add(time.Duration(i)*time.Minute+30*time.Second), 1000))
	}
	sendWires(t, d, wires)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}

	base := "http://" + d.HTTPAddr().String()
	const link = "127.0.0.1@0"
	metrics := getBody(t, base+"/metrics")
	if err := reporttest.LintExposition(strings.NewReader(metrics)); err != nil {
		t.Errorf("metrics page fails exposition lint: %v\n%s", err, metrics)
	}
	wants := []string{
		"# TYPE elephantd_link_stalls_total counter",
		"elephantd_link_stalls_total{link=\"" + link + "\"} 0",
		"# TYPE elephantd_stage_overlap_seconds histogram",
		"elephantd_stage_overlap_seconds_count{link=\"" + link + "\"} 5",
	}
	for _, want := range wants {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The row's JSON is API: exactly these three fields.
	var page struct {
		Pipelines []map[string]json.RawMessage `json:"pipelines"`
	}
	getJSON(t, base+"/links", &page)
	if len(page.Pipelines) != 1 {
		t.Fatalf("links page has %d pipeline rows, want 1: %v", len(page.Pipelines), page.Pipelines)
	}
	row := page.Pipelines[0]
	if len(row) != 3 || string(row["link"]) != `"`+link+`"` || string(row["stalls"]) != "0" || row["stage_overlap_nanos"] == nil {
		t.Errorf("pipeline row = %s, want link %s, 0 stalls on an unpressured link and a stage overlap", row, link)
	}

	// The trace lines carry the stage-overlap column (zero or positive;
	// never negative by the clamp).
	traces := decodeTraces(t, getBody(t, base+"/links/"+link+"/debug/intervals"))
	for i, tr := range traces {
		if tr.StageOverlapNanos < 0 {
			t.Errorf("trace %d: negative stage overlap %d", i, tr.StageOverlapNanos)
		}
	}
	if len(traces) != 5 {
		t.Fatalf("debug intervals has %d traces, want 5", len(traces))
	}
}

// TestMetricsScrapesRaceIngest hammers /metrics, /healthz, /readyz and
// /links from several goroutines while ingest creates new links (one
// per engine ID) and seals intervals — the scrape paths race link
// registration and pipeline workers. Every scraped page must pass the
// exposition lint. Run with -race. The sender moves the interval clock
// on by 20 s a datagram, so it has a fixed number to send: stopping only
// when the scrapers are done made the seals, and the pages the scrapers
// read, grow with how slow the host is.
func TestMetricsScrapesRaceIngest(t *testing.T) {
	const datagrams = 2000 // ≥0.4 s of sending: the scrapers' first rounds overlap it on any host
	d := newObsDaemon(t, nil)
	base := "http://" + d.HTTPAddr().String()
	start := d.cfg.Start

	stop := make(chan struct{})
	var sender, scrapers sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		conn, err := net.Dial("udp", d.UDPAddr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		for i := 0; i < datagrams; i++ {
			select {
			case <-stop:
				return
			default:
			}
			at := start.Add(time.Duration(i) * 20 * time.Second)
			wire := v5wire(t, uint8(i%24), at, 500)
			if _, err := conn.Write(wire); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				page := getBody(t, base+"/metrics")
				if err := reporttest.LintExposition(strings.NewReader(page)); err != nil {
					t.Errorf("scrape %d fails lint: %v", i, err)
					return
				}
				var h Health
				getJSON(t, base+"/healthz", &h)
				if h.Status != "ok" || !h.Ready {
					t.Errorf("healthz mid-ingest = %+v", h)
					return
				}
				getBody(t, base+"/readyz")
				var lp LinksPage
				getJSON(t, base+"/links", &lp)
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	sender.Wait()
}

// TestMetricsByteStableQuietDaemon: once ingest is drained, consecutive
// /metrics scrapes must be byte-identical — every family renders its
// series in link-ID order and no sample moves on a quiet daemon.
func TestMetricsByteStableQuietDaemon(t *testing.T) {
	d := newObsDaemon(t, nil)
	start := d.cfg.Start
	var wires [][]byte
	for e := uint8(0); e < 3; e++ {
		for i := 0; i < 3; i++ {
			wires = append(wires, v5wire(t, e, start.Add(time.Duration(i)*time.Minute+15*time.Second), 800))
		}
	}
	sendWires(t, d, wires)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.HTTPAddr().String()
	first := getBody(t, base+"/metrics")
	if err := reporttest.LintExposition(strings.NewReader(first)); err != nil {
		t.Fatalf("lint: %v", err)
	}
	for i := 0; i < 3; i++ {
		if again := getBody(t, base+"/metrics"); again != first {
			t.Fatalf("scrape %d differs from the first:\n--- first\n%s\n--- again\n%s", i+2, first, again)
		}
	}
}

// TestMetricsSeriesInLinkOrder: every family with a link label lists
// its series in ascending link ID, whatever order the links were created
// in, and /links lists the same IDs in its links and pipelines arrays —
// a link whose pipeline could not be built included. The links here are
// created as engine ID 2, then 0, then 1 — one socket, one reader, so
// datagrams are dispatched in the order sent — and then engine ID 10
// under a scheme whose factory fails: it sorts between 1 and 2, is
// published once, failed, and its datagrams are counted as dropped.
func TestMetricsSeriesInLinkOrder(t *testing.T) {
	var logs logCapture
	d := newObsDaemon(t, func(c *Config) { c.Logf = logs.logf })
	start := d.cfg.Start
	send := func(engines ...uint8) {
		var wires [][]byte
		for _, e := range engines {
			for i := 0; i < 3; i++ {
				wires = append(wires, v5wire(t, e, start.Add(time.Duration(i)*time.Minute+15*time.Second), 800))
			}
		}
		sendWires(t, d, wires)
	}
	send(2, 0, 1)
	// A link is built under the store's creation lock, so swapping the
	// scheme under it orders the swap against the readers' builds.
	broken := *d.cfg.Scheme
	broken.Alpha = 1.5
	d.store.mu.Lock()
	d.cfg.Scheme = &broken
	d.store.mu.Unlock()
	send(10)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.HTTPAddr().String()
	page := getBody(t, base+"/metrics")
	if err := reporttest.LintExposition(strings.NewReader(page)); err != nil {
		t.Fatalf("lint: %v", err)
	}

	// The links each family lists, in order, one entry per run of
	// samples of the same link (a histogram series is many lines).
	linkLabel := regexp.MustCompile(`[{,]link="([^"]*)"`)
	var families []string
	listed := map[string][]string{}
	for _, line := range strings.Split(page, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
			continue
		}
		m := linkLabel.FindStringSubmatch(line)
		if m == nil || len(families) == 0 {
			continue
		}
		fam := families[len(families)-1]
		if l := listed[fam]; len(l) == 0 || l[len(l)-1] != m[1] {
			listed[fam] = append(l, m[1])
		}
	}
	const failed = "127.0.0.1@10"
	want := []string{"127.0.0.1@0", "127.0.0.1@1", failed, "127.0.0.1@2"}
	if len(listed) != 24 {
		t.Errorf("%d families carry a link label, want the 24 per-link families:\n%s", len(listed), page)
	}
	for _, fam := range families {
		if got, ok := listed[fam]; ok && !slices.Equal(got, want) {
			t.Errorf("%s lists its series as %v, want %v", fam, got, want)
		}
	}

	var lp LinksPage
	getJSON(t, base+"/links", &lp)
	var links, pipelines []string
	for _, l := range lp.Links {
		links = append(links, l.ID)
	}
	for _, p := range lp.Pipelines {
		pipelines = append(pipelines, p.Link)
	}
	if !slices.Equal(links, want) || !slices.Equal(pipelines, want) {
		t.Errorf("/links lists links %v and pipelines %v, want %v for both", links, pipelines, want)
	}
	if row := lp.Links[2]; row.Error == "" || row.Ingest != (IngestCounters{Datagrams: 3, Records: 3, Dropped: 3}) {
		t.Errorf("link %s = %+v, want failed with its 3 datagrams' records dropped", failed, row)
	}
	if n := logs.count("new link " + failed); n != 1 {
		t.Errorf("link %s built %d times, want once", failed, n)
	}
}

// TestReadyzStaleness exercises the liveness/readiness split: an empty
// daemon is ready (cold start, waiting for exporters); once links exist
// and every one goes StaleAfter without sealing an interval, /readyz
// flips to 503 while /healthz keeps answering 200; one link sealing
// again restores readiness.
func TestReadyzStaleness(t *testing.T) {
	const staleAfter = 75 * time.Millisecond
	d := newObsDaemon(t, func(c *Config) { c.StaleAfter = staleAfter })
	base := "http://" + d.HTTPAddr().String()

	var rd Readiness
	getJSON(t, base+"/readyz", &rd)
	if !rd.Ready || len(rd.Links) != 0 {
		t.Fatalf("empty daemon readiness = %+v, want ready", rd)
	}
	if rd.StaleAfterSeconds != staleAfter.Seconds() {
		t.Errorf("stale_after_seconds = %v, want %v", rd.StaleAfterSeconds, staleAfter.Seconds())
	}

	// A known link that never seals goes stale past the threshold.
	ls := d.Store().GetOrCreate("x@0", 4)
	time.Sleep(2 * staleAfter)
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-stale readyz = %s, want 503", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || len(rd.Links) != 1 || !rd.Links[0].Stale || rd.Links[0].StalenessSeconds <= staleAfter.Seconds() {
		t.Errorf("all-stale readiness = %+v", rd)
	}
	// Liveness is unaffected; /healthz mirrors the readiness signal.
	var h Health
	getJSON(t, base+"/healthz", &h)
	if h.Status != "ok" || h.Ready || len(h.LinkHealth) != 1 {
		t.Errorf("healthz while stale = %+v", h)
	}

	// A seal resets the link's staleness clock: ready again.
	ls.RecordResult(0, time.Now(), resultWith(pfx("10.0.0.0/24")), agg.StreamStats{Closed: 1})
	getJSON(t, base+"/readyz", &rd)
	if !rd.Ready || rd.Links[0].Stale {
		t.Errorf("post-seal readiness = %+v", rd)
	}
}

// TestPprofGate: the profiling handlers exist only when Config.Pprof is
// set — the default daemon keeps its debug surface closed.
func TestPprofGate(t *testing.T) {
	off := newObsDaemon(t, nil)
	resp, err := http.Get("http://" + off.HTTPAddr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: GET /debug/pprof/ = %s, want 404", resp.Status)
	}

	on := newObsDaemon(t, func(c *Config) { c.Pprof = true })
	base := "http://" + on.HTTPAddr().String()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pprof on: GET %s = %s, want 200", path, resp.Status)
		}
	}
	if fmt.Sprint(on.cfg.Pprof) != "true" {
		t.Error("config did not retain Pprof")
	}
}
