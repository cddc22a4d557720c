package netflow

import (
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/packet"
)

var (
	t0  = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	aIP = netip.MustParseAddr("10.1.2.3")
	bIP = netip.MustParseAddr("192.0.2.9")
)

func sampleRecord() Record {
	return Record{
		SrcAddr: aIP, DstAddr: bIP,
		NextHop: netip.MustParseAddr("203.0.113.1"),
		InputIf: 3, OutputIf: 7,
		Packets: 100, Octets: 123456,
		First: 1000, Last: 61000,
		SrcPort: 1234, DstPort: 80,
		TCPFlags: 0x1B, Proto: 6, TOS: 0x20,
		SrcAS: 65001, DstAS: 65002,
		SrcMask: 24, DstMask: 16,
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	d := &Datagram{
		Header: Header{
			Count: 2, SysUptime: 99000,
			UnixSecs: uint32(t0.Unix()), UnixNsecs: 500,
			FlowSequence: 42, EngineType: 1, EngineID: 2, SamplingInterval: 0x4001,
		},
		Records: []Record{sampleRecord(), sampleRecord()},
	}
	d.Records[1].DstAddr = netip.MustParseAddr("198.51.100.1")

	raw, err := d.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != HeaderLen+2*RecordLen {
		t.Fatalf("encoded %d bytes, want %d", len(raw), HeaderLen+2*RecordLen)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header != d.Header {
		t.Errorf("header roundtrip: %+v vs %+v", back.Header, d.Header)
	}
	for i := range d.Records {
		if back.Records[i] != d.Records[i] {
			t.Errorf("record %d roundtrip:\n got %+v\nwant %+v", i, back.Records[i], d.Records[i])
		}
	}
}

// TestDecodeIntoReuse pins the scratch-reuse contract: a Datagram that
// just held a large datagram decodes a smaller one without stale
// records, allocating nothing once the records slice has grown.
func TestDecodeIntoReuse(t *testing.T) {
	big := &Datagram{Header: Header{Count: 5}, Records: []Record{
		sampleRecord(), sampleRecord(), sampleRecord(), sampleRecord(), sampleRecord(),
	}}
	small := &Datagram{Header: Header{Count: 1, FlowSequence: 9}, Records: []Record{sampleRecord()}}
	small.Records[0].DstAddr = netip.MustParseAddr("198.51.100.7")
	bigRaw, err := big.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	smallRaw, err := small.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch Datagram
	if err := DecodeInto(bigRaw, &scratch); err != nil {
		t.Fatal(err)
	}
	bigCap := cap(scratch.Records)
	if err := DecodeInto(smallRaw, &scratch); err != nil {
		t.Fatal(err)
	}
	if len(scratch.Records) != 1 || scratch.Records[0] != small.Records[0] {
		t.Errorf("reused decode = %d records, first %+v", len(scratch.Records), scratch.Records[0])
	}
	if scratch.Header != small.Header {
		t.Errorf("reused header = %+v, want %+v", scratch.Header, small.Header)
	}
	if cap(scratch.Records) != bigCap {
		t.Errorf("records capacity shrank %d -> %d; reuse lost", bigCap, cap(scratch.Records))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(bigRaw, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeInto allocates %.1f/op, want 0", allocs)
	}
}

func TestEncodeValidation(t *testing.T) {
	d := &Datagram{Header: Header{Count: 0}}
	if _, err := d.Encode(nil); err == nil {
		t.Error("empty datagram accepted")
	}
	d = &Datagram{Header: Header{Count: 2}, Records: []Record{sampleRecord()}}
	if _, err := d.Encode(nil); err == nil {
		t.Error("count mismatch accepted")
	}
	r := sampleRecord()
	r.DstAddr = netip.MustParseAddr("2001:db8::1")
	d = &Datagram{Header: Header{Count: 1}, Records: []Record{r}}
	if _, err := d.Encode(nil); err == nil {
		t.Error("IPv6 record accepted by v5 encoder")
	}
	many := make([]Record, MaxRecordsPerDatagram+1)
	for i := range many {
		many[i] = sampleRecord()
	}
	d = &Datagram{Header: Header{Count: uint16(len(many))}, Records: many}
	if _, err := d.Encode(nil); err == nil {
		t.Error("31 records accepted")
	}
}

func TestDecodeValidation(t *testing.T) {
	if _, err := Decode([]byte{0, 5}); err == nil {
		t.Error("short datagram accepted")
	}
	good, _ := (&Datagram{Header: Header{Count: 1}, Records: []Record{sampleRecord()}}).Encode(nil)
	bad := append([]byte(nil), good...)
	bad[1] = 9 // version 9
	if _, err := Decode(bad); err == nil {
		t.Error("version 9 accepted")
	}
	if _, err := Decode(good[:HeaderLen+10]); err == nil {
		t.Error("truncated records accepted")
	}
	bad2 := append([]byte(nil), good...)
	bad2[3] = 5 // count 5, but only 1 record present
	if _, err := Decode(bad2); err == nil {
		t.Error("overclaimed count accepted")
	}
}

func TestDecodeCountMismatch(t *testing.T) {
	one, _ := (&Datagram{Header: Header{Count: 1}, Records: []Record{sampleRecord()}}).Encode(nil)
	two, _ := (&Datagram{Header: Header{Count: 2}, Records: []Record{sampleRecord(), sampleRecord()}}).Encode(nil)
	countOne := append([]byte(nil), two...)
	countOne[3] = 1 // payload holds two records, header claims one

	cases := []struct {
		name     string
		data     []byte
		wantErr  bool
		mismatch bool // errors.Is(err, ErrCountMismatch)
	}{
		{"exact single record", one, false, false},
		{"exact two records", two, false, false},
		{"truncated mid-record", one[:HeaderLen+10], true, true},
		{"trailing garbage", append(append([]byte(nil), one...), 0xde, 0xad), true, true},
		{"count claims two, one present", two[:HeaderLen+RecordLen], true, true},
		{"payload holds two, count says one", countOne, true, true},
		{"shorter than header", one[:HeaderLen-4], true, false}, // distinct short-datagram error
	}
	for _, tc := range cases {
		d, err := Decode(tc.data)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Decode error = %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil {
			if int(d.Header.Count) != len(d.Records) {
				t.Errorf("%s: count %d != %d records", tc.name, d.Header.Count, len(d.Records))
			}
			continue
		}
		if got := errors.Is(err, ErrCountMismatch); got != tc.mismatch {
			t.Errorf("%s: errors.Is(err, ErrCountMismatch) = %v, want %v (err: %v)", tc.name, got, tc.mismatch, err)
		}
	}
}

func TestHeaderTimestamps(t *testing.T) {
	h := Header{
		SysUptime: 100000, // exporter has been up 100 s
		UnixSecs:  uint32(t0.Unix()),
		UnixNsecs: 0,
	}
	r := Record{First: 40000, Last: 70000}
	first, last := h.Timestamps(r)
	// boot = t0 - 100 s; first = boot + 40 s = t0 - 60 s.
	if want := t0.Add(-60 * time.Second); !first.Equal(want) {
		t.Errorf("first = %v, want %v", first, want)
	}
	if want := t0.Add(-30 * time.Second); !last.Equal(want) {
		t.Errorf("last = %v, want %v", last, want)
	}
}

// TestAttributeTimesMatchAddChain compares the single-constructor wall
// times and the uptime-difference span with the arithmetic they
// replaced — boot = header time − SysUptime, first/last = boot + reading,
// span = last − first — over the corners of the wire fields: readings
// before the header's, nanoseconds past a second, full-range uptimes.
// The Time values must be identical (==), not merely Equal: they end up
// in records whose results are compared byte for byte.
func TestAttributeTimesMatchAddChain(t *testing.T) {
	table := bgp.NewTable()
	if err := table.Insert(bgp.Route{Prefix: netip.MustParsePrefix("192.0.2.0/24")}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	corner := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint32
		case 2:
			return uint32(rng.Intn(2000))
		}
		return rng.Uint32()
	}
	for i := 0; i < 20000; i++ {
		h := Header{SysUptime: corner(), UnixSecs: corner(), UnixNsecs: corner()}
		r := Record{DstAddr: bIP, First: corner(), Last: corner(), Octets: 1}
		boot := time.Unix(int64(h.UnixSecs), int64(h.UnixNsecs)).Add(-time.Duration(h.SysUptime) * time.Millisecond)
		wantFirst := boot.Add(time.Duration(r.First) * time.Millisecond)
		wantLast := boot.Add(time.Duration(r.Last) * time.Millisecond)
		if first, last := h.Timestamps(r); first != wantFirst || last != wantLast {
			t.Fatalf("Timestamps(%+v, First=%d Last=%d) = %v, %v; want %v, %v", h, r.First, r.Last, first, last, wantFirst, wantLast)
		}
		rec, ok := Attribute(table, h, r)
		if !ok {
			t.Fatal("routed destination reported unrouted")
		}
		wantSpan := max(wantLast.Sub(wantFirst), 0)
		if rec.Time != wantFirst || rec.Span != wantSpan {
			t.Fatalf("Attribute(%+v, First=%d Last=%d) = time %v span %v; want %v, %v", h, r.First, r.Last, rec.Time, rec.Span, wantFirst, wantSpan)
		}
	}
}

// TestAttributeZeroAllocs pins record→flow attribution, routed or not,
// at zero allocations: it runs once per record on every ingest path.
func TestAttributeZeroAllocs(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := Header{SysUptime: 99000, UnixSecs: uint32(t0.Unix())}
	routed, unrouted := sampleRecord(), sampleRecord()
	routed.DstAddr = table.Routes()[3].Prefix.Addr()
	unrouted.DstAddr = netip.MustParseAddr("10.1.2.3") // Generate leaves 10/8 empty
	if _, ok := Attribute(table, h, routed); !ok {
		t.Fatal("routed record reported unrouted")
	}
	if _, ok := Attribute(table, h, unrouted); ok {
		t.Fatal("unrouted record attributed")
	}
	if n := testing.AllocsPerRun(100, func() { Attribute(table, h, routed); Attribute(table, h, unrouted) }); n != 0 {
		t.Errorf("Attribute allocates %v times per run, want 0", n)
	}
}

// TestAttributeDatagramMatchesAttribute: the per-datagram pass resolves
// destinations a chunk at a time, so it is held to per-record Attribute
// on a datagram DecodeInto never produces but a caller can build —
// 100 records, more than three chunks, mixing routed IPv4,
// unrouted IPv4, IPv4-mapped IPv6, IPv6 under a route only the prefix
// map finds, unrouted IPv6 and the zero Addr: the same records in the
// same order after what dst already held, and the unrouted count exact.
func TestAttributeDatagramMatchesAttribute(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Insert(bgp.Route{Prefix: netip.MustParsePrefix("2001:db8::/32"), OriginAS: 8}); err != nil {
		t.Fatal(err)
	}
	routes := table.Routes()
	rng := rand.New(rand.NewSource(5))
	d := &Datagram{Header: Header{SysUptime: 99000, UnixSecs: uint32(t0.Unix())}}
	for i := 0; i < 100; i++ {
		r := sampleRecord()
		r.Octets = uint32(1000 + i) // every record distinct, so a swap shows
		r.First = uint32(100 * i)
		r.Last = r.First + uint32(i%3)*250
		v4 := bgp.RandomAddrInPrefix(rng, routes[rng.Intn(2000)].Prefix)
		switch i % 7 {
		case 0, 1:
			r.DstAddr = v4
		case 2:
			r.DstAddr = netip.MustParseAddr("10.1.2.3") // Generate leaves 10/8 empty
		case 3:
			r.DstAddr = netip.AddrFrom16(v4.As16()) // IPv4-mapped
		case 4:
			r.DstAddr = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})
		case 5:
			r.DstAddr = netip.MustParseAddr("2001:db9::1") // no IPv6 route covers it
		case 6:
			r.DstAddr = netip.Addr{}
		}
		d.Records = append(d.Records, r)
	}
	held := agg.Record{Prefix: netip.MustParsePrefix("192.0.2.0/24"), Bits: 1}
	want := []agg.Record{held}
	wantUnrouted := 0
	for _, r := range d.Records {
		if rec, ok := Attribute(table, d.Header, r); ok {
			want = append(want, rec)
		} else {
			wantUnrouted++
		}
	}
	if routed := len(want) - 1; routed != 58 || wantUnrouted != 42 {
		t.Fatalf("per-record Attribute routes %d and drops %d of the mix, want 58 and 42", routed, wantUnrouted)
	}
	got, unrouted := AttributeDatagram(table, d, []agg.Record{held})
	if unrouted != wantUnrouted {
		t.Errorf("%d unrouted, per-record Attribute says %d", unrouted, wantUnrouted)
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("record %d of %d (want %d):\n got %+v\nwant %+v", i, len(got), len(want), got[i], want[i])
			}
		}
		t.Fatalf("%d records, per-record Attribute gives %d", len(got), len(want))
	}
}

// TestAttributeDatagramReuse pins the slot-reuse contract of the
// per-datagram attribution pass, which writes into whatever dst held
// before: a datagram alternating span and point records, routed and
// unrouted, attributed twice into the same dst — the second time over
// slots the first pass filled in a different order — must equal
// per-record Attribute field for field (a point record landing on a
// span record's old slot reads Span 0), give an unrouted record no
// slot, count the unrouted exactly, and allocate nothing once dst has
// grown.
func TestAttributeDatagramReuse(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	routes := table.Routes()
	datagram := func(shift int) *Datagram {
		d := &Datagram{Header: Header{SysUptime: 99000, UnixSecs: uint32(t0.Unix()), UnixNsecs: uint32(shift)}}
		for i := 0; i < 12; i++ {
			r := sampleRecord()
			r.DstAddr = routes[(7*i+shift)%len(routes)].Prefix.Addr()
			if (i+shift)%3 == 0 {
				r.DstAddr = netip.MustParseAddr("10.1.2.3") // Generate leaves 10/8 empty
			}
			r.Octets = uint32(1000 + i)
			r.First = uint32(1000 * i)
			r.Last = r.First // a point record…
			if i%2 == 0 {
				r.Last += 500 * uint32(i+1) // …or a span
			}
			d.Records = append(d.Records, r)
		}
		d.Header.Count = uint16(len(d.Records))
		return d
	}
	// The second datagram shifts which positions are unrouted, and with
	// them which slot each routed record takes: every slot that held a
	// span now gets a point and the other way round.
	dgs := []*Datagram{datagram(0), datagram(1)}
	var dst []agg.Record
	for pass, d := range dgs {
		var want []agg.Record
		wantUnrouted := 0
		for _, r := range d.Records {
			if rec, ok := Attribute(table, d.Header, r); ok {
				want = append(want, rec)
			} else {
				wantUnrouted++
			}
		}
		if wantUnrouted == 0 || wantUnrouted == len(d.Records) {
			t.Fatalf("pass %d: %d of %d records unrouted; the mix is the point", pass, wantUnrouted, len(d.Records))
		}
		var unrouted int
		dst, unrouted = AttributeDatagram(table, d, dst[:0])
		if unrouted != wantUnrouted {
			t.Errorf("pass %d: %d unrouted, want %d", pass, unrouted, wantUnrouted)
		}
		if !slices.Equal(dst, want) {
			t.Errorf("pass %d: AttributeDatagram into a reused dst\n got %+v\nwant %+v", pass, dst, want)
		}
	}
	// Appending keeps what dst already held.
	both, _ := AttributeDatagram(table, dgs[0], slices.Clone(dst))
	if !slices.Equal(both[:len(dst)], dst) || len(both) <= len(dst) {
		t.Errorf("AttributeDatagram onto a non-empty dst kept %d of %d records and added %d", len(dst), len(dst), len(both)-len(dst))
	}
	if n := testing.AllocsPerRun(100, func() {
		dst, _ = AttributeDatagram(table, dgs[0], dst[:0])
		dst, _ = AttributeDatagram(table, dgs[1], dst[:0])
	}); n != 0 {
		t.Errorf("AttributeDatagram into a grown dst allocates %v times per run, want 0", n)
	}
}

func packetAt(dst netip.Addr, bytes int) packet.Summary {
	return packet.Summary{
		SrcIP: aIP, DstIP: dst,
		Protocol: 6, SrcPort: 1000, DstPort: 80,
		WireLength: bytes,
	}
}

func TestExporterAggregatesFlows(t *testing.T) {
	var got []*Datagram
	e := NewExporter(ExporterConfig{}, func(d *Datagram) error {
		got = append(got, d)
		return nil
	})
	// Three packets of one flow within the timeouts.
	for i := 0; i < 3; i++ {
		if err := e.AddPacket(t0.Add(time.Duration(i)*time.Second), packetAt(bIP, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if e.CachedFlows() != 1 {
		t.Fatalf("cache = %d flows", e.CachedFlows())
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Records) != 1 {
		t.Fatalf("datagrams = %v", got)
	}
	r := got[0].Records[0]
	if r.Packets != 3 || r.Octets != 3000 {
		t.Errorf("record = %+v", r)
	}
	if r.Last-r.First != 2000 {
		t.Errorf("duration = %d ms, want 2000", r.Last-r.First)
	}
	if e.Sequence() != 1 {
		t.Errorf("sequence = %d", e.Sequence())
	}
}

func TestExporterInactiveTimeout(t *testing.T) {
	var records int
	e := NewExporter(ExporterConfig{InactiveTimeout: 5 * time.Second}, func(d *Datagram) error {
		records += len(d.Records)
		return nil
	})
	e.AddPacket(t0, packetAt(bIP, 100))
	// 10 s later the flow is idle-expired; a packet to another dst
	// triggers the scan.
	e.AddPacket(t0.Add(10*time.Second), packetAt(netip.MustParseAddr("198.51.100.1"), 100))
	if e.CachedFlows() != 1 {
		t.Errorf("cache = %d, want 1 (first flow expired)", e.CachedFlows())
	}
	e.Flush()
	if records != 2 {
		t.Errorf("records = %d, want 2", records)
	}
}

func TestExporterActiveTimeoutSplitsLongFlow(t *testing.T) {
	var records int
	e := NewExporter(ExporterConfig{ActiveTimeout: 30 * time.Second, InactiveTimeout: time.Hour},
		func(d *Datagram) error { records += len(d.Records); return nil })
	// A flow sending every second for 2 minutes must be flushed at
	// least three times by the active timeout.
	for i := 0; i < 120; i++ {
		if err := e.AddPacket(t0.Add(time.Duration(i)*time.Second), packetAt(bIP, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if records < 3 {
		t.Errorf("long flow exported as %d records, want >= 3", records)
	}
}

func TestExporterSkipsNonIPv4(t *testing.T) {
	e := NewExporter(ExporterConfig{}, nil)
	sum := packet.Summary{
		SrcIP: netip.MustParseAddr("2001:db8::1"),
		DstIP: netip.MustParseAddr("2001:db8::2"),
	}
	if err := e.AddPacket(t0, sum); err != nil {
		t.Fatal(err)
	}
	if e.CachedFlows() != 0 {
		t.Error("IPv6 packet cached by v5 exporter")
	}
}

func TestExporterBatchesDatagrams(t *testing.T) {
	var sizes []int
	e := NewExporter(ExporterConfig{InactiveTimeout: time.Millisecond},
		func(d *Datagram) error { sizes = append(sizes, len(d.Records)); return nil })
	// 65 distinct one-packet flows, each expiring immediately.
	for i := 0; i < 65; i++ {
		dst := netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
		e.AddPacket(t0.Add(time.Duration(i)*time.Second), packetAt(dst, 100))
	}
	e.Flush()
	total := 0
	for _, s := range sizes {
		if s > MaxRecordsPerDatagram {
			t.Fatalf("datagram with %d records", s)
		}
		total += s
	}
	if total != 65 {
		t.Errorf("exported %d records, want 65", total)
	}
}

func TestExporterDeterministic(t *testing.T) {
	run := func() []uint32 {
		var seqs []uint32
		e := NewExporter(ExporterConfig{InactiveTimeout: 2 * time.Second},
			func(d *Datagram) error { seqs = append(seqs, d.Header.FlowSequence); return nil })
		for i := 0; i < 200; i++ {
			dst := netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 16)})
			e.AddPacket(t0.Add(time.Duration(i)*331*time.Millisecond), packetAt(dst, 100+i))
		}
		e.Flush()
		return seqs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic datagram count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic sequence at %d", i)
		}
	}
}

// scanEveryPacket is the exporter's expiry without the deadline bound:
// every packet walks the whole cache. It is the reference
// TestExporterDeadlineMatchesFullScan holds the bounded scan to.
type scanEveryPacket struct{ *Exporter }

func (e scanEveryPacket) AddPacket(ts time.Time, sum packet.Summary) error {
	if e.boot.IsZero() {
		e.boot = ts
	}
	e.now = ts
	kept := e.order[:0]
	for _, k := range e.order {
		ent := e.cache[k]
		if e.now.Sub(ent.last) > e.cfg.InactiveTimeout || e.now.Sub(ent.first) > e.cfg.ActiveTimeout {
			e.flushEntry(k, ent)
			delete(e.cache, k)
			continue
		}
		kept = append(kept, k)
	}
	e.order = kept
	if len(e.pending) >= MaxRecordsPerDatagram {
		if err := e.sendPending(MaxRecordsPerDatagram); err != nil {
			return err
		}
	}
	k := flowKey{sum.SrcIP, sum.DstIP, sum.SrcPort, sum.DstPort, sum.Protocol}
	ent, ok := e.cache[k]
	if !ok {
		ent = &cacheEntry{first: ts}
		e.cache[k] = ent
		e.order = append(e.order, k)
	}
	ent.last = ts
	ent.packets++
	ent.octets += uint32(sum.WireLength)
	return nil
}

// TestExporterDeadlineMatchesFullScan: the exporter scans its cache only
// once the earliest deadline has passed, and must still emit exactly the
// datagrams — headers and records, byte for byte — of a scan on every
// packet. The streams are random, with packets landing exactly on a
// timeout (ties do not expire), whole-second steps that expire more than
// two datagrams' worth of flows at once, and idle gaps; a backlog of
// pending records still leaves one datagram per packet.
func TestExporterDeadlineMatchesFullScan(t *testing.T) {
	for _, to := range []struct{ active, inactive time.Duration }{
		{30 * time.Second, 10 * time.Second},
		{60 * time.Second, 15 * time.Second},
		{5 * time.Second, 2 * time.Second},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			run := func(full bool) [][]byte {
				var wires [][]byte
				e := NewExporter(ExporterConfig{ActiveTimeout: to.active, InactiveTimeout: to.inactive}, func(d *Datagram) error {
					wire, err := d.Encode(nil)
					wires = append(wires, wire)
					return err
				})
				add := e.AddPacket
				if full {
					add = scanEveryPacket{e}.AddPacket
				}
				rng := rand.New(rand.NewSource(seed))
				now := t0
				for i := 0; i < 2000; i++ {
					switch r := rng.Intn(100); {
					case r < 2: // a burst: 70 new flows in one instant
						for j := 0; j < 70; j++ {
							dst := netip.AddrFrom4([4]byte{198, 51, byte(i), byte(j)})
							if err := add(now, packetAt(dst, 64)); err != nil {
								t.Fatal(err)
							}
						}
					case r < 10: // exactly one timeout on
						now = now.Add(to.inactive)
					case r < 15:
						now = now.Add(to.active)
					case r < 17: // an idle gap
						now = now.Add(time.Duration(rng.Int63n(int64(3 * to.active))))
					default:
						now = now.Add(time.Duration(rng.Intn(4)) * 250 * time.Millisecond)
					}
					dst := netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(64))})
					if err := add(now, packetAt(dst, 40+rng.Intn(1400))); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				return wires
			}
			got, want := run(false), run(true)
			if len(got) != len(want) {
				t.Fatalf("timeouts %v/%v seed %d: %d datagrams, full scan %d", to.active, to.inactive, seed, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("timeouts %v/%v seed %d: datagram %d differs from the full scan", to.active, to.inactive, seed, i)
				}
			}
		}
	}
}
