package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/report/reporttest"
	"repro/internal/scheme"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// IDs is the store's ID-ordered links (which /links, /metrics and the
// readiness probes walk) as a list of IDs, for the tests that pin its
// order and completeness.
func (s *Store) IDs() []string {
	links := s.links()
	ids := make([]string, len(links))
	for i, ls := range links {
		ids[i] = ls.id
	}
	return ids
}

func resultWith(elephants ...netip.Prefix) core.Result {
	return core.Result{
		Elephants:   core.NewElephantSet(elephants...),
		TotalLoad:   1e6,
		ActiveFlows: 10,
		Threshold:   5e5,
	}
}

func TestLinkStateHistoryRing(t *testing.T) {
	ls := newLinkState("l", 4)
	t0 := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	// Each interval is recorded with timings only it has: the step's four
	// stage times, the seal-time lag and the overlap are all functions of i.
	timings := func(i int) (core.StepObservation, time.Duration, time.Duration) {
		n := int64(i + 1)
		return core.StepObservation{Interval: i, DetectNanos: 10 * n, ClassifyNanos: 20 * n, FinalizeNanos: 30 * n, StepNanos: 100 * n},
			time.Duration(1000 * n), time.Duration(7 * n)
	}
	for i := 0; i < 10; i++ {
		res := resultWith(pfx(fmt.Sprintf("10.0.%d.0/24", i)))
		res.RawThreshold = 4e5 + float64(i)
		o, lag, overlap := timings(i)
		ls.record(engine.Sealed{T: i, At: t0.Add(time.Duration(i) * time.Minute), Result: res, Stats: agg.StreamStats{Closed: i + 1}, Step: o, SealLag: lag}, overlap)
		if m := ls.metrics; m.promoted != uint64(i+1) || m.demoted != uint64(i) {
			t.Errorf("interval %d: churn totals +%d/-%d, want +%d/-%d", i, m.promoted, m.demoted, i+1, i)
		}
	}
	hist := ls.History(0, true)
	traces := ls.traces()
	if len(hist) != 4 || len(traces) != 4 {
		t.Fatalf("%d history entries and %d trace lines, want ring capacity 4 of each", len(hist), len(traces))
	}
	for i, e := range hist {
		wantT := 6 + i // oldest retained is interval 6
		if e.Interval != wantT {
			t.Errorf("entry %d: interval %d, want %d", i, e.Interval, wantT)
		}
		if want := fmt.Sprintf("[10.0.%d.0/24]", wantT); fmt.Sprint(e.Flows) != want {
			t.Errorf("entry %d: flows %v, want %v", i, e.Flows, want)
		}
		// The trace line beside it: the summary's numbers, the timings
		// the interval was recorded with, and a seal time.
		o, lag, overlap := timings(wantT)
		tr := traces[i]
		if tr.SealedUnixNanos <= 0 {
			t.Errorf("trace %d: no seal time", i)
		}
		tr.SealedUnixNanos = 0
		want := IntervalTrace{
			Interval: wantT, DetectNanos: o.DetectNanos, ClassifyNanos: o.ClassifyNanos,
			FinalizeNanos: o.FinalizeNanos, StepNanos: o.StepNanos,
			RawThreshold: 4e5 + float64(wantT), Threshold: e.ThresholdBps,
			TotalLoad: e.TotalLoadBps, ElephantLoad: e.ElephantLoadBps,
			ActiveFlows: e.ActiveFlows, Elephants: e.Elephants, Promoted: e.Promoted, Demoted: e.Demoted,
			WatermarkLagNanos: int64(lag), StageOverlapNanos: int64(overlap),
		}
		if tr != want {
			t.Errorf("trace %d = %+v, want %+v", i, tr, want)
		}
	}
	// n narrows to the most recent entries; flows omitted when not asked.
	tail := ls.History(2, false)
	if len(tail) != 2 || tail[1].Interval != 9 || tail[0].Interval != 8 {
		t.Errorf("History(2) = %+v", tail)
	}
	if tail[0].Flows != nil {
		t.Error("flows included without being requested")
	}
	// Each interval replaces the whole set: one promotion, one demotion.
	if tail[1].Promoted != 1 || tail[1].Demoted != 1 {
		t.Errorf("churn = +%d/-%d, want +1/-1", tail[1].Promoted, tail[1].Demoted)
	}
	sum, set, ok := ls.Current()
	if !ok || sum.Interval != 9 || !set.Contains(pfx("10.0.9.0/24")) {
		t.Errorf("Current() = %+v, %v, %v", sum, set, ok)
	}

	// RecordResult is record with nothing to report but the interval: the
	// line keeps the summary's numbers and a seal time, every timing zero.
	ls.RecordResult(10, t0.Add(10*time.Minute), resultWith(pfx("10.0.10.0/24")), agg.StreamStats{Closed: 11})
	traces = ls.traces()
	tr := traces[len(traces)-1]
	if tr.Interval != 10 || tr.Elephants != 1 || tr.Promoted != 1 || tr.Demoted != 1 || tr.Threshold != 5e5 || tr.SealedUnixNanos <= 0 {
		t.Errorf("RecordResult's trace line = %+v", tr)
	}
	if tr.DetectNanos|tr.ClassifyNanos|tr.FinalizeNanos|tr.StepNanos|tr.WatermarkLagNanos|tr.StageOverlapNanos != 0 {
		t.Errorf("RecordResult's trace line carries timings: %+v", tr)
	}
	if traces[0].Interval != 7 {
		t.Errorf("oldest trace after an eleventh interval = %d, want 7", traces[0].Interval)
	}
}

// count is the histogram's number of observations.
func (h *histogram) count() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// TestStageHistogramBuckets: the bounds run from 1 µs ×4 apart; a value
// equal to a bound lands in that bound's bucket, one just above it in
// the next, and one past the last bound in +Inf.
func TestStageHistogramBuckets(t *testing.T) {
	for i, b := range stageBounds {
		if want := math.Ldexp(1e-6, 2*i); b != want {
			t.Errorf("bound %d = %v, want %v", i, b, want)
		}
	}
	var h histogram
	values := []float64{0, stageBounds[0], math.Nextafter(stageBounds[0], 1), stageBounds[5], stageBounds[11], 2 * stageBounds[11], 1e9}
	var sum float64
	for _, v := range values {
		h.observe(v)
		sum += v
	}
	if want := [...]uint64{2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 2}; h.counts != want {
		t.Errorf("buckets = %v, want %v", h.counts, want)
	}
	if h.sum != sum {
		t.Errorf("sum = %v, want %v", h.sum, sum)
	}
}

// TestStageHistogramRender pins one histogram series as /metrics renders
// it: every bound's cumulative bucket, +Inf equal to _count, and _sum.
func TestStageHistogramRender(t *testing.T) {
	var h histogram
	for _, v := range []float64{0, 0.25, 2, 8} {
		h.observe(v)
	}
	var buf bytes.Buffer
	m := report.NewMetricsWriter(&buf)
	m.Family("d_step_seconds", "Step.", "histogram")
	m.Histogram("d_step_seconds", []report.Label{{Name: "link", Value: "a@0"}}, stageBounds[:], h.counts[:], h.sum)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP d_step_seconds Step.
# TYPE d_step_seconds histogram
d_step_seconds_bucket{link="a@0",le="1e-06"} 1
d_step_seconds_bucket{link="a@0",le="4e-06"} 1
d_step_seconds_bucket{link="a@0",le="1.6e-05"} 1
d_step_seconds_bucket{link="a@0",le="6.4e-05"} 1
d_step_seconds_bucket{link="a@0",le="0.000256"} 1
d_step_seconds_bucket{link="a@0",le="0.001024"} 1
d_step_seconds_bucket{link="a@0",le="0.004096"} 1
d_step_seconds_bucket{link="a@0",le="0.016384"} 1
d_step_seconds_bucket{link="a@0",le="0.065536"} 1
d_step_seconds_bucket{link="a@0",le="0.262144"} 2
d_step_seconds_bucket{link="a@0",le="1.048576"} 2
d_step_seconds_bucket{link="a@0",le="4.194304"} 3
d_step_seconds_bucket{link="a@0",le="+Inf"} 4
d_step_seconds_sum{link="a@0"} 10.25
d_step_seconds_count{link="a@0"} 4
`
	if got := buf.String(); got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
	if err := reporttest.LintExposition(&buf); err != nil {
		t.Errorf("rendered series fails lint: %v", err)
	}
}

// TestRecordFoldsStageMetrics: record folds the step's stage timings and
// the stage overlap, in seconds, into the link's histograms and the
// churn into its totals; the raw threshold /metrics shows is the newest
// interval's, 0 before the first.
func TestRecordFoldsStageMetrics(t *testing.T) {
	ls := newLinkState("a@0", 4)
	if raw := ls.read().raw; raw != 0 {
		t.Errorf("raw threshold before the first seal = %v, want 0", raw)
	}
	t0 := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	first := resultWith(pfx("10.0.0.0/24"))
	first.RawThreshold = 4e5
	ls.record(engine.Sealed{T: 0, At: t0, Result: first, Stats: agg.StreamStats{Closed: 1}, SealLag: time.Second,
		Step: core.StepObservation{StepNanos: 2_000_000, DetectNanos: 1_000_000, ClassifyNanos: 500_000}}, 3*time.Millisecond)
	second := resultWith(pfx("10.0.1.0/24"))
	second.RawThreshold = 6e5
	ls.record(engine.Sealed{T: 1, At: t0.Add(time.Minute), Result: second, Stats: agg.StreamStats{Closed: 2}, Step: core.StepObservation{Interval: 1, StepNanos: 3_000_000}}, 0)

	r := ls.read()
	m, raw := r.metrics, r.raw
	for _, c := range []struct {
		name string
		h    histogram
		sum  float64
	}{{"step", m.step, 0.005}, {"detect", m.detect, 0.001}, {"classify", m.classify, 0.0005}, {"overlap", m.overlap, 0.003}} {
		if c.h.count() != 2 || c.h.sum != c.sum {
			t.Errorf("%s histogram: %d observations summing to %v, want 2 summing to %v", c.name, c.h.count(), c.h.sum, c.sum)
		}
	}
	if m.promoted != 2 || m.demoted != 1 || raw != 6e5 {
		t.Errorf("churn +%d/-%d, raw threshold %v; want +2/-1 and 6e5", m.promoted, m.demoted, raw)
	}
}

// TestChurnCounts pins the store's churn source: an interval's churn is
// core.Churn of the link's previous set and the new one, computed once
// where the interval is recorded; TestDebugIntervalsAgreeWithHistory
// checks that /history, /debug/intervals and /metrics all carry it.
func TestChurnCounts(t *testing.T) {
	a := core.NewElephantSet(pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.2.0/24"))
	b := core.NewElephantSet(pfx("10.0.1.0/24"), pfx("10.0.3.0/24"))
	promoted, demoted := core.Churn(a, b)
	if promoted != 1 || demoted != 2 {
		t.Errorf("churn = +%d/-%d, want +1/-2", promoted, demoted)
	}
	if p, d := core.Churn(core.ElephantSet{}, a); p != 3 || d != 0 {
		t.Errorf("churn from empty = +%d/-%d", p, d)
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	const links = 64
	var wg sync.WaitGroup
	for i := 0; i < links; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ls := s.GetOrCreate(fmt.Sprintf("link-%02d", i), 8)
			ls.ObserveDatagram(3, 2, 1, 0)
		}(i)
	}
	wg.Wait()
	ids := s.IDs()
	if len(ids) != links || ids[0] != "link-00" || ids[links-1] != fmt.Sprintf("link-%02d", links-1) {
		t.Errorf("IDs not complete/sorted: %v", ids)
	}
	// GetOrCreate must be idempotent: counters accumulate on one state.
	ls := s.GetOrCreate("link-00", 8)
	ls.ObserveDatagram(3, 2, 1, 0)
	if got := s.Get("link-00").Summary().Ingest; got.Datagrams != 2 || got.Records != 6 {
		t.Errorf("ingest after two datagrams = %+v", got)
	}
	if s.Get("nope") != nil {
		t.Error("unknown link returned state")
	}
}

// TestStoreSortedViewUnderCreation pins the store's link order: while
// writers create links, every Summaries read is in sort.Strings order
// and never loses a link an earlier read held; a link whose GetOrCreate
// returned before a read began is in that read; and once the writers
// are done IDs is exactly the sorted set. Run with -race.
func TestStoreSortedViewUnderCreation(t *testing.T) {
	s := NewStore()
	const writers, perWriter = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Interleaved, not ascending: new links land mid-order.
				id := fmt.Sprintf("link-%03d@%d", (i*37)%perWriter, w)
				s.GetOrCreate(id, 1).ObserveDatagram(1, 1, 0, 0)
				if got := s.IDs(); !slices.Contains(got, id) {
					t.Errorf("link %s missing from IDs() right after its GetOrCreate returned", id)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		prev := 0
		for {
			rows := s.Summaries()
			ids := make([]string, len(rows))
			for i, r := range rows {
				ids[i] = r.ID
			}
			if !sort.StringsAreSorted(ids) {
				t.Errorf("Summaries out of order: %v", ids)
				return
			}
			if len(ids) < prev {
				t.Errorf("Summaries shrank: %d links after %d", len(ids), prev)
				return
			}
			prev = len(ids)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readers

	want := make([]string, 0, writers*perWriter)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			want = append(want, fmt.Sprintf("link-%03d@%d", i, w))
		}
	}
	sort.Strings(want)
	if got := s.IDs(); !slices.Equal(got, want) {
		t.Fatalf("IDs() = %d links, want the %d created in sort.Strings order", len(got), len(want))
	}
	// A link created between two reads appears in the second, in place.
	before := s.IDs()
	s.GetOrCreate("link-000@0a", 1)
	after := s.IDs()
	if i, found := slices.BinarySearch(after, "link-000@0a"); !found || len(after) != len(before)+1 || !sort.StringsAreSorted(after) {
		t.Fatalf("new link at %d (found %v) of %d IDs, %d before", i, found, len(after), len(before))
	}
}

func TestLinkIDFormat(t *testing.T) {
	cases := []struct {
		addr   string
		engine uint8
		want   string
	}{
		{"10.0.0.1", 0, "10.0.0.1@0"},
		{"::ffff:10.0.0.1", 3, "10.0.0.1@3"}, // 4-in-6 unmapped
		{"2001:db8::1", 7, "2001:db8::1@7"},
	}
	for _, tc := range cases {
		if got := linkID(netip.MustParseAddr(tc.addr), tc.engine); got != tc.want {
			t.Errorf("linkID(%s, %d) = %q, want %q", tc.addr, tc.engine, got, tc.want)
		}
	}
}

// newTestDaemon binds a daemon on loopback ephemeral ports with a tiny
// synthetic table.
func newTestDaemon(t *testing.T) *Daemon {
	t.Helper()
	table, err := bgp.Generate(bgp.GenConfig{Routes: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   scheme.MustParse("load"),
		Interval: time.Minute,
		Logf:     t.Logf,
	})
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

// TestNewDaemonRejectsNegativeConfig: a negative count is refused, not
// replaced by the default it would otherwise fall back to (a negative
// History used to be reported as the ring's capacity while the ring held
// DefaultHistory entries).
func TestNewDaemonRejectsNegativeConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"history", func(c *Config) { c.History = -1 }},
		{"window", func(c *Config) { c.Window = -1 }},
		{"buffer", func(c *Config) { c.Buffer = -1 }},
		{"readers", func(c *Config) { c.Readers = -1 }},
	} {
		cfg := Config{
			UDPAddr:  "127.0.0.1:0",
			HTTPAddr: "127.0.0.1:0",
			Table:    bgp.NewTable(),
			Scheme:   scheme.MustParse("load"),
		}
		tc.mutate(&cfg)
		d, err := NewDaemon(cfg)
		if err == nil {
			for _, c := range d.conns {
				c.Close()
			}
			d.httpLn.Close()
			t.Errorf("NewDaemon accepted a negative %s", tc.name)
			continue
		}
		if want := "serve: NewDaemon: negative " + tc.name + " -1"; err.Error() != want {
			t.Errorf("negative %s: error %q, want %q", tc.name, err, want)
		}
	}
}

func TestHTTPEndpointsEmptyDaemon(t *testing.T) {
	d := newTestDaemon(t)
	base := "http://" + d.HTTPAddr().String()

	var h Health
	getJSON(t, base+"/healthz", &h)
	if h.Status != "ok" || h.Links != 0 {
		t.Errorf("healthz = %+v", h)
	}
	var page LinksPage
	getJSON(t, base+"/links", &page)
	if len(page.Links) != 0 {
		t.Errorf("links = %+v, want empty", page.Links)
	}
	if len(page.Readers) != 1 {
		t.Errorf("readers = %+v, want one row for the default single reader", page.Readers)
	}
	// Unknown link: 404 on both per-link endpoints.
	for _, path := range []string{"/links/nope@0/elephants", "/links/nope@0/history"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %s, want 404", path, resp.Status)
		}
	}
	if !strings.Contains(getBody(t, base+"/metrics"), "elephantd_links 0\n") {
		t.Error("metrics missing elephantd_links 0")
	}
}

func TestDecodeErrorCounted(t *testing.T) {
	d := newTestDaemon(t)
	conn, err := net.Dial("udp", d.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 5, 0, 1, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.HTTPAddr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h Health
		getJSON(t, base+"/healthz", &h)
		if h.DecodeErrors == 1 && h.Datagrams == 1 {
			if h.Links != 0 {
				t.Errorf("undecodable datagram created a link: %+v", h)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("decode error never counted: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHistoryBadQuery(t *testing.T) {
	d := newTestDaemon(t)
	// Create a link by recording directly into the store.
	ls := d.Store().GetOrCreate("x@0", 4)
	ls.RecordResult(0, time.Now(), resultWith(pfx("10.0.0.0/24")), agg.StreamStats{Closed: 1})
	base := "http://" + d.HTTPAddr().String()
	resp, err := http.Get(base + "/links/x@0/history?n=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n = %s, want 400", resp.Status)
	}
	var hist HistoryPage
	getJSON(t, base+"/links/x@0/history?n=1&flows=1", &hist)
	if len(hist.Entries) != 1 || fmt.Sprint(hist.Entries[0].Flows) != "[10.0.0.0/24]" {
		t.Errorf("history = %+v", hist)
	}
}
