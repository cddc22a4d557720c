package netflow

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/trace"
)

func collectTable(t *testing.T) *bgp.Table {
	t.Helper()
	tab := bgp.NewTable()
	for _, s := range []string{"10.0.0.0/8", "192.0.2.0/24"} {
		if err := tab.Insert(bgp.Route{Prefix: netip.MustParsePrefix(s)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// header anchored so that uptime == offset from t0.
func anchoredHeader(count uint16) Header {
	return Header{
		Count:     count,
		SysUptime: 0,
		UnixSecs:  uint32(t0.Unix()),
	}
}

// collectDatagrams is the batch NetFlow ingest the way every caller
// spells it: the datagrams framed as a router would ship them to disk,
// read back through a RecordSource and drained into s by agg.Collect.
func collectDatagrams(t *testing.T, table *bgp.Table, s *agg.Series, ds ...*Datagram) (RecordSourceStats, agg.CollectStats) {
	t.Helper()
	var framed bytes.Buffer
	sw := NewStreamWriter(&framed)
	for _, d := range ds {
		if err := sw.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	src := NewRecordSource(NewStreamReader(&framed), table)
	st, err := agg.Collect(src, s)
	if err != nil {
		t.Fatal(err)
	}
	return src.Stats, st
}

func TestCollectorPointFlow(t *testing.T) {
	s := agg.NewSeries(t0, time.Minute, 3)
	r := Record{
		SrcAddr: aIP, DstAddr: netip.MustParseAddr("10.5.5.5"),
		Octets: 750, First: 70000, Last: 70000, // 70 s in => interval 1
	}
	_, st := collectDatagrams(t, collectTable(t), s, &Datagram{Header: anchoredHeader(1), Records: []Record{r}})
	if st.Routed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	got := s.Bandwidth(netip.MustParsePrefix("10.0.0.0/8"), 1)
	want := 750 * 8.0 / 60
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("bandwidth = %v, want %v", got, want)
	}
}

// TestCollectorSpreadsLongFlow: a record spanning 3 intervals must have
// its octets apportioned by time overlap, not dumped into one interval.
func TestCollectorSpreadsLongFlow(t *testing.T) {
	s := agg.NewSeries(t0, time.Minute, 4)
	// Flow from 00:30 to 02:30 (in minutes:seconds from t0): spans
	// interval 0 (30 s), 1 (60 s), 2 (30 s). 1200 octets over 120 s.
	r := Record{
		SrcAddr: aIP, DstAddr: netip.MustParseAddr("10.1.1.1"),
		Octets: 1200, First: 30000, Last: 150000,
	}
	collectDatagrams(t, collectTable(t), s, &Datagram{Header: anchoredHeader(1), Records: []Record{r}})
	p := netip.MustParsePrefix("10.0.0.0/8")
	totalBits := 1200 * 8.0
	wants := []float64{
		totalBits * 0.25 / 60, // 30 of 120 s
		totalBits * 0.50 / 60,
		totalBits * 0.25 / 60,
		0,
	}
	for i, w := range wants {
		if got := s.Bandwidth(p, i); math.Abs(got-w) > 1e-9 {
			t.Errorf("interval %d: %v, want %v", i, got, w)
		}
	}
}

func TestCollectorUnroutedAndOutOfRange(t *testing.T) {
	s := agg.NewSeries(t0, time.Minute, 1)
	recs := []Record{
		{SrcAddr: aIP, DstAddr: netip.MustParseAddr("8.8.8.8"), Octets: 1, First: 0, Last: 0},
		{SrcAddr: aIP, DstAddr: netip.MustParseAddr("10.0.0.1"), Octets: 1, First: 600000, Last: 600000},
	}
	src, st := collectDatagrams(t, collectTable(t), s, &Datagram{Header: anchoredHeader(2), Records: recs})
	if src.Unrouted != 1 || st.OutOfRange != 1 || st.Routed != 0 {
		t.Errorf("stats = %+v, %+v", src, st)
	}
}

// TestNetflowPathMatchesPcapPath: the flow-record ingest path must
// reconstruct (approximately) the same per-prefix interval bandwidths as
// direct packet aggregation — the property that lets an operator deploy
// the classifier behind either feed.
func TestNetflowPathMatchesPcapPath(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 800, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Table: table, Flows: 150, MeanLoadBps: 1e6, Seed: 80,
		Profile: trace.FlatProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const intervals = 4
	fast := link.GenerateSeries(t0, time.Minute, intervals)

	// Emit packets, then run them through BOTH ingest paths.
	var buf bytes.Buffer
	em := trace.NewPacketEmitter(81)
	if _, err := em.Emit(&buf, fast); err != nil {
		t.Fatal(err)
	}
	direct := agg.NewSeries(t0, time.Minute, intervals)
	pkts, err := agg.NewPacketRecordSource(bytes.NewReader(buf.Bytes()), table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Collect(pkts, direct); err != nil {
		t.Fatal(err)
	}

	// The framed stream puts the wire format in the loop.
	var framed bytes.Buffer
	exp := NewExporter(ExporterConfig{ActiveTimeout: 30 * time.Second, InactiveTimeout: 10 * time.Second},
		NewStreamWriter(&framed).Write)
	r, err := agg.NewPcapPacketSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		ts, sum, err := r.Next()
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
	viaFlow := agg.NewSeries(t0, time.Minute, intervals)
	if _, err := agg.Collect(NewRecordSource(NewStreamReader(&framed), table), viaFlow); err != nil {
		t.Fatal(err)
	}

	// Compare per-interval totals: flow records smear bytes across
	// interval edges (timeout granularity), so allow 15%.
	for i := 0; i < intervals; i++ {
		a, b := direct.TotalBandwidth(i), viaFlow.TotalBandwidth(i)
		if a == 0 && b == 0 {
			continue
		}
		if rel := math.Abs(a-b) / math.Max(a, b); rel > 0.15 {
			t.Errorf("interval %d: direct %v vs netflow %v (rel %.3f)", i, a, b, rel)
		}
	}
	// Total volume must be conserved almost exactly.
	var sa, sb float64
	for i := 0; i < intervals; i++ {
		sa += direct.TotalBandwidth(i)
		sb += viaFlow.TotalBandwidth(i)
	}
	if rel := math.Abs(sa-sb) / sa; rel > 0.02 {
		t.Errorf("total volume drift %.4f (direct %v, netflow %v)", rel, sa, sb)
	}
}
