package serve

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/netflow"
	"repro/internal/scheme"
)

// benchWire builds one full 30-record v5 datagram whose destinations
// all route in table, with every record landing in interval 0 (no
// interval ever closes, so the pipeline worker's steady state is pure
// same-flow accumulation).
func benchWire(tb testing.TB, table *bgp.Table, at time.Time) []byte {
	tb.Helper()
	routes := table.Routes()
	if len(routes) == 0 {
		tb.Fatal("empty table")
	}
	recs := make([]netflow.Record, netflow.MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = netflow.Record{
			SrcAddr: netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}),
			DstAddr: routes[i%len(routes)].Prefix.Addr(),
			Packets: 10,
			Octets:  4000,
			First:   1000,
			Last:    1000,
			Proto:   6,
		}
	}
	dg := &netflow.Datagram{
		Header: netflow.Header{
			Count:     uint16(len(recs)),
			SysUptime: 1000, // record First/Last anchor exactly at UnixSecs
			UnixSecs:  uint32(at.Unix()),
		},
		Records: recs,
	}
	wire, err := dg.Encode(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// BenchmarkIngestDispatch runs the daemon's per-datagram path —
// DecodeInto into the reader's scratch, link lookup in the reader's own
// map, per-datagram BGP attribution, SendBatch into the link pipeline —
// excluding only the socket read. TestDispatchToKnownLinksAllocatesNothing pins the
// same path at 0 allocations, so the sharded front-end can run at socket
// speed without GC pressure. Its one datagram (600 routes, 30
// fixed destinations, one interval) stays in the cache, so its time says
// little about a record's cost on a real table; that figure is
// netflow's BenchmarkRecordPathDatagram.
func BenchmarkIngestDispatch(b *testing.B) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 600, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   scheme.MustParse("load+latent"),
		Interval: 5 * time.Minute,
		Start:    start,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.Start() // readers idle on their sockets; we drive dispatch directly
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()

	wire := benchWire(b, table, start)
	ap := netip.MustParseAddrPort("192.0.2.9:2055")
	r := newReader(0, nil, 0)

	// Warm up: create the link, grow the decode scratch and the
	// accumulator's flow columns to steady state. Few enough iterations
	// that the link queue (default 4096 records) still has room, so a
	// single-shot run (-benchtime 1x) times the unblocked dispatch path
	// rather than waiting for the link worker to drain the warmup.
	for i := 0; i < 8; i++ {
		if err := netflow.DecodeInto(wire, &r.dg); err != nil {
			b.Fatal(err)
		}
		d.dispatch(r, ap, &r.dg)
	}

	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := netflow.DecodeInto(wire, &r.dg); err != nil {
			b.Fatal(err)
		}
		d.dispatch(r, ap, &r.dg)
	}
	// The deferred Shutdown (and its ~100ms ingest drain) runs before
	// the framework stops the clock; keep it out of the figure.
	b.StopTimer()
}
