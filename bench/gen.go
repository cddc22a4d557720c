package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/netflow"
	"repro/internal/trace"
)

// Input shape shared by the stream and live workloads. These are
// constants, not flags: two commits are only comparable when they were
// offered the same work.
const (
	tableRoutes     = 60000
	benchInterval   = time.Minute
	intervalsPerRep = 24
	recordsPerFlow  = 4
	meanLoadBps     = 50e6
	schemeSpec      = "load+latent"

	// repSpanSecs is how far one repetition advances the export clock:
	// repetition r replays the same wire set r trace-spans later, as
	// cmd/nfreplay does, so a run is one continuous stream.
	repSpanSecs = uint32(intervalsPerRep * int(benchInterval/time.Second))

	// quarterMillis is the slice of an interval each of a flow's
	// recordsPerFlow records lives in.
	quarterMillis = int(benchInterval/time.Millisecond) / recordsPerFlow
)

// traceStart is the left edge of interval 0 (the paper's trace start).
var traceStart = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

// linkShape sizes the exporters of one wire set.
type linkShape struct {
	links int
	flows int // per link
}

var (
	heavyShape = linkShape{links: 1, flows: 8192}
	manyShape  = linkShape{links: 64, flows: 128}
)

// wireSet is one repetition of NetFlow v5 wire bytes for one or more
// exporters, in send order: interval by interval, and within an
// interval round-robin over the links. Datagram i is
// buf[off[i]:off[i+1]]; one flat buffer keeps 17k datagrams out of the
// allocator and contiguous in memory.
type wireSet struct {
	buf      []byte
	off      []int
	interval []int16 // data interval (0..intervalsPerRep-1) of each datagram
	link     []uint8 // exporter engine ID of each datagram
	baseSecs uint32  // header UnixSecs of repetition 0
	links    int
	records  int // records per repetition, all links
}

func (w *wireSet) datagrams() int { return len(w.off) - 1 }

// datagram returns datagram i stamped for repetition rep. The stamp is
// written in place, so a wireSet is used by one goroutine at a time.
func (w *wireSet) datagram(i, rep int) []byte {
	d := w.buf[w.off[i]:w.off[i+1]]
	binary.BigEndian.PutUint32(d[8:12], w.baseSecs+uint32(rep)*repSpanSecs)
	return d
}

// buildWire synthesizes one repetition of wire bytes from the seed:
// every link is a trace.NewLink flat-profile population streamed for
// intervalsPerRep intervals; each active flow's interval volume is split
// into recordsPerFlow records with non-zero spans strictly inside the
// interval; the records of one (link, interval) are shuffled — grouping
// a flow's records back-to-back would flatter LPM and accumulation
// through cache locality — and packed 30 per datagram.
func buildWire(table *bgp.Table, shape linkShape, seed int64) (*wireSet, error) {
	if shape.links < 1 || shape.links > 256 {
		return nil, fmt.Errorf("bench: %d links outside 1..256 (engine IDs)", shape.links)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ws := &wireSet{
		baseSecs: uint32(traceStart.Unix()) + repSpanSecs,
		links:    shape.links,
	}
	// cells[l][t] holds link l's encoded datagrams of interval t.
	cells := make([][][][]byte, shape.links)
	for l := range cells {
		link, err := trace.NewLink(trace.LinkConfig{
			Name:        fmt.Sprintf("bench-%d", l),
			Profile:     trace.FlatProfile(),
			MeanLoadBps: meanLoadBps,
			Flows:       shape.flows,
			Table:       table,
			Seed:        seed*1000 + int64(l),
		})
		if err != nil {
			return nil, err
		}
		perInterval, err := linkRecords(link, rng)
		if err != nil {
			return nil, err
		}
		cells[l] = make([][][]byte, intervalsPerRep)
		var sequence uint32
		for t, recs := range perInterval {
			ws.records += len(recs)
			for lo := 0; lo < len(recs); lo += netflow.MaxRecordsPerDatagram {
				hi := min(lo+netflow.MaxRecordsPerDatagram, len(recs))
				dg := netflow.Datagram{
					Header: netflow.Header{
						Count: uint16(hi - lo),
						// boot = UnixSecs - SysUptime = traceStart, so a
						// record's First/Last are offsets from interval 0.
						SysUptime:    repSpanSecs * 1000,
						UnixSecs:     ws.baseSecs,
						FlowSequence: sequence,
						EngineID:     uint8(l),
					},
					Records: recs[lo:hi],
				}
				raw, err := dg.Encode(nil)
				if err != nil {
					return nil, err
				}
				cells[l][t] = append(cells[l][t], raw)
				sequence += uint32(hi - lo)
			}
		}
	}
	ws.off = append(ws.off, 0)
	for t := 0; t < intervalsPerRep; t++ {
		for k, more := 0, true; more; k++ {
			more = false
			for l := range cells {
				if d := cells[l][t]; k < len(d) {
					ws.buf = append(ws.buf, d[k]...)
					ws.off = append(ws.off, len(ws.buf))
					ws.interval = append(ws.interval, int16(t))
					ws.link = append(ws.link, uint8(l))
					more = true
				}
			}
		}
	}
	if ws.datagrams() == 0 {
		return nil, errors.New("bench: generator produced no datagrams")
	}
	return ws, nil
}

// linkRecords streams one link for intervalsPerRep intervals and
// returns its NetFlow records per interval, shuffled within each.
func linkRecords(link *trace.Link, rng *rand.Rand) ([][]netflow.Record, error) {
	out := make([][]netflow.Record, intervalsPerRep)
	src := link.Stream(traceStart, benchInterval, intervalsPerRep)
	for {
		pr, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		t := int(pr.Time.Sub(traceStart) / benchInterval)
		out[t] = appendFlowRecords(out[t], rng, pr.Prefix, pr.Bits, t)
	}
	for _, recs := range out {
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	}
	return out, nil
}

// appendFlowRecords splits one flow's interval volume (bits) into
// recordsPerFlow NetFlow records, one per quarter of interval t. Each
// has a span of at least 1 ms that ends inside its quarter — so no
// record crosses an interval boundary — and carries at least one octet
// and at most MaxUint32.
func appendFlowRecords(dst []netflow.Record, rng *rand.Rand, prefix netip.Prefix, bits float64, t int) []netflow.Record {
	octets := bits / 8 / recordsPerFlow
	src := netip.AddrFrom4([4]byte{byte(11 + rng.Intn(200)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
	sport := uint16(1024 + rng.Intn(60000))
	for q := 0; q < recordsPerFlow; q++ {
		// ±25 % around an even split, so the four records differ.
		o := math.Round(octets * (0.75 + 0.5*rng.Float64()))
		o = math.Max(1, math.Min(o, math.MaxUint32))
		first := t*int(benchInterval/time.Millisecond) + q*quarterMillis + rng.Intn(quarterMillis/3)
		last := first + 1 + rng.Intn(quarterMillis/2)
		dst = append(dst, netflow.Record{
			SrcAddr: src,
			DstAddr: bgp.RandomAddrInPrefix(rng, prefix),
			Packets: uint32(o/500) + 1,
			Octets:  uint32(o),
			First:   uint32(first),
			Last:    uint32(last),
			SrcPort: sport,
			DstPort: 80,
			Proto:   6,
		})
	}
	return dst
}
