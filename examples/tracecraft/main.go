// Tracecraft: build a pcap capture packet by packet with the low-level
// substrate, then read it back and classify it.
//
// The other examples use the fast path (trace.Link writes bandwidths
// straight into an agg.Series). This one exercises the full wire-format
// path instead: frames are constructed with packet.Builder, written with
// pcap.Writer, re-read through agg.PacketRecordSource and agg.Collect
// (decode + longest-prefix match + interval aggregation) and finally
// classified. It demonstrates that
// the classification layer is agnostic to how the bandwidth series was
// obtained — exactly the property a drop-in deployment needs.
//
// Run with:
//
//	go run ./examples/tracecraft
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/scheme"
)

func main() {
	// A tiny hand-made routing table: three /16s and a /24 carved out
	// of one of them, to show longest-prefix-match attribution.
	table := bgp.NewTable()
	for _, s := range []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.1.99.0/24"} {
		if err := table.Insert(bgp.Route{Prefix: netip.MustParsePrefix(s), OriginAS: 65000, Tier: bgp.Tier2}); err != nil {
			log.Fatal(err)
		}
	}

	// Craft a capture: 30 minutes, six 5-minute intervals. 10.1.99.0/24
	// is the elephant: it receives a steady ~39 kb/s. The /16s get light
	// sporadic traffic.
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.Header{LinkType: pcap.LinkTypeEthernet, SnapLen: 65535})
	if err := w.WriteHeader(); err != nil {
		log.Fatal(err)
	}

	builder := packet.NewBuilder()
	rng := rand.New(rand.NewSource(3))
	writeFrame := func(ts time.Time, dst netip.Addr, size int) {
		frame, err := builder.Build(packet.FrameSpec{
			SrcIP:      netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + rng.Intn(250))}),
			DstIP:      dst,
			Protocol:   packet.IPProtocolTCP,
			SrcPort:    uint16(1024 + rng.Intn(60000)),
			DstPort:    80,
			PayloadLen: size,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := w.WritePacket(pcap.CaptureInfo{Timestamp: ts, CaptureLength: len(frame), Length: len(frame)}, frame); err != nil {
			log.Fatal(err)
		}
	}

	elephant := netip.MustParseAddr("10.1.99.7")
	mice := []netip.Addr{
		netip.MustParseAddr("10.1.5.9"), // falls under 10.1.0.0/16, not the /24
		netip.MustParseAddr("10.2.77.1"),
		netip.MustParseAddr("10.3.14.2"),
	}
	const horizon = 30 * time.Minute
	// Elephant: one 1200-byte frame every 250 ms ≈ 39 kb/s.
	for off := time.Duration(0); off < horizon; off += 250 * time.Millisecond {
		writeFrame(start.Add(off), elephant, 1200)
	}
	// Mice: a small frame every ~2 s to a random mouse prefix.
	for off := time.Duration(0); off < horizon; off += 2 * time.Second {
		writeFrame(start.Add(off), mice[rng.Intn(len(mice))], 260)
	}

	fmt.Printf("crafted capture: %.1f KiB\n", float64(buf.Len())/1024)

	// Read it back through the measurement pipeline.
	series := agg.NewSeries(start, 5*time.Minute, 6)
	src, err := agg.NewPacketRecordSource(&buf, table)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := agg.Collect(src, series)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %d frames, %d routed, %d unrouted, %d flows\n\n",
		src.ParserStats().Frames, stats.Routed, src.Stats.Unrouted, series.NumFlows())

	// Classify. With so few flows the aest estimator has nothing to chew
	// on, so the spec names the constant-load detector; MinFlows is a
	// pipeline-level setting on the spec, outside the grammar.
	sp := scheme.MustParse("load:beta=0.8+single")
	sp.MinFlows = 1 // tiny demo: classify even with a handful of flows
	cfg, err := sp.Config()
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var snap *core.FlowSnapshot
	for t := 0; t < series.Intervals; t++ {
		snap = series.Snapshot(t, snap)
		res, err := pipe.Step(snap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("interval %d: elephants:", t)
		for _, p := range res.Elephants.Flows() {
			fmt.Printf(" %s (%.1f kb/s)", p, series.Bandwidth(p, t)/1e3)
		}
		fmt.Println()
	}
	fmt.Println("\nnote: 10.1.99.0/24 wins over 10.1.0.0/16 by longest-prefix match.")
}
