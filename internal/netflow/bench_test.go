package netflow

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/packet"
)

var attributeSink agg.Record

// shuffledRecords is the record shape the benchmark harness replays: a
// 60 000-route table and 8192 flow prefixes with 4 records each to
// random destinations inside the prefix, shuffled — so consecutive
// lookups share no cache line of the table, unlike a loop over a handful
// of warm probes.
func shuffledRecords(b *testing.B) (*bgp.Table, Header, []Record) {
	b.Helper()
	table, err := bgp.Generate(bgp.GenConfig{Routes: 60000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	routes := table.Routes()
	var recs []Record
	for _, ri := range rng.Perm(len(routes))[:8192] {
		for q := 0; q < 4; q++ {
			rec := sampleRecord()
			rec.DstAddr = bgp.RandomAddrInPrefix(rng, routes[ri].Prefix)
			recs = append(recs, rec)
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return table, Header{SysUptime: 99000, UnixSecs: uint32(t0.Unix())}, recs
}

// BenchmarkAttributeShuffled is per-record attribution — Attribute by
// value, what a caller without a batch pays — over shuffledRecords. One
// op is one pass over all 32 768 records (a -benchtime 1x run still
// means something); ns/record is the figure to read.
// BenchmarkRecordPathDatagram is its per-datagram twin.
func BenchmarkAttributeShuffled(b *testing.B) {
	table, h, recs := shuffledRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range recs {
			rec, ok := Attribute(table, h, recs[k])
			if !ok {
				b.Fatal("generated destination is unrouted")
			}
			attributeSink = rec
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

// BenchmarkRecordPathDatagram is the daemon's record path after decode,
// on one goroutine: shuffledRecords cut into 30-record datagrams, each
// pushed through AttributeDatagram and straight on through
// StreamAccumulator.AddBatch, so the routing index and the flow table
// contend for the cache as they do in the daemon. One op is one pass
// over all 32 768 records, after an untimed pass that binds the flows;
// ns/record is the figure to read and the path must stay at 0 allocs/op.
func BenchmarkRecordPathDatagram(b *testing.B) {
	table, h, recs := shuffledRecords(b)
	var dgs []*Datagram
	for len(recs) > 0 {
		n := min(len(recs), MaxRecordsPerDatagram)
		dgs = append(dgs, &Datagram{Header: h, Records: recs[:n]})
		recs = recs[n:]
	}
	acc, err := agg.NewStreamAccumulator(agg.StreamConfig{Interval: 5 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []agg.Record
	pass := func() (n int) {
		for _, d := range dgs {
			scratch, _ = AttributeDatagram(table, d, scratch[:0])
			if _, err := acc.AddBatch(scratch); err != nil {
				b.Fatal(err)
			}
			n += len(scratch)
		}
		return n
	}
	n := pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pass() != n {
			b.Fatal("a pass attributed a different number of records")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}

func BenchmarkEncode30(b *testing.B) {
	recs := make([]Record, MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = sampleRecord()
	}
	d := &Datagram{Header: Header{Count: uint16(len(recs))}, Records: recs}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = d.Encode(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkDecode30(b *testing.B) {
	recs := make([]Record, MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = sampleRecord()
	}
	d := &Datagram{Header: Header{Count: uint16(len(recs))}, Records: recs}
	raw, err := d.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeReuse is the daemon ingest readers' steady state: one
// Datagram scratch decoded into over and over. Must stay 0 allocs/op —
// the read→decode half of the zero-alloc ingest contract.
func BenchmarkDecodeReuse(b *testing.B) {
	recs := make([]Record, MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = sampleRecord()
	}
	d := &Datagram{Header: Header{Count: uint16(len(recs))}, Records: recs}
	raw, err := d.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	var scratch Datagram
	if err := DecodeInto(raw, &scratch); err != nil { // grow Records once
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(raw, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExporterAddPacket(b *testing.B) {
	e := NewExporter(ExporterConfig{}, func(*Datagram) error { return nil })
	// 512 concurrent flows cycling.
	sums := make([]packet.Summary, 512)
	for i := range sums {
		sums[i] = packet.Summary{
			SrcIP:      netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			DstIP:      netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
			Protocol:   6,
			SrcPort:    uint16(1024 + i),
			DstPort:    80,
			WireLength: 500,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := t0.Add(time.Duration(i) * time.Millisecond)
		if err := e.AddPacket(ts, sums[i%len(sums)]); err != nil {
			b.Fatal(err)
		}
	}
}
