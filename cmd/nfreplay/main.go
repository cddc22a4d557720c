// Command nfreplay feeds a running elephantd (or any NetFlow v5
// collector) over UDP: it synthesizes a link's traffic, pushes the
// packets through the router-model flow cache (netflow.Exporter), and
// sends the resulting datagrams to the collector's socket — the
// loopback half of a self-contained live-monitoring demo, the traffic
// source of the CI daemon smoke test, and (with -senders/-pace 0) the
// blast source of the ingest saturation benchmark.
//
// The BGP table is generated from (-routes, -seed); point the daemon at
// the same pair (elephantd -gen-routes N -gen-seed S) so both sides
// attribute records against an identical table.
//
// The datagram set is synthesized and encoded once; each sender then
// replays it from its own UDP socket with a distinct NetFlow engine ID
// (-engine + sender index), so S senders appear to the collector as S
// independent links — S distinct REUSEPORT buckets and S pipelines.
// Repetitions re-stamp each datagram's export clock one trace-span
// later, so replayed records keep advancing in time instead of landing
// behind the collector's closed intervals as late drops.
//
// Flags:
//
//	-addr host:port   collector address (default "127.0.0.1:2055")
//	-routes N         synthetic BGP table size (default 600)
//	-seed S           table and traffic seed (default 7)
//	-flows N          concurrent flows on the link (default 200)
//	-intervals N      measurement intervals to synthesize (default 4)
//	-interval D       measurement interval length (default 30s)
//	-mean-bps B       mean offered load in bit/s (default 2e5)
//	-engine ID        NetFlow engine ID of the first sender
//	-senders N        parallel senders, distinct engine IDs (default 1)
//	-count N          replay the datagram set N times per sender (default 1)
//	-duration D       replay until D has elapsed (overrides -count)
//	-pace D           sleep between datagrams per sender (default 1ms; 0 blasts)
//	-single-link      all senders keep the first engine ID, so S sockets
//	                  blast ONE collector link — one hot link's record
//	                  queue and accumulate stage under load — instead
//	                  of the S-links ingest shape
//
// On exit it prints the achieved aggregate rate (datagrams/s, records/s,
// Mbit/s), making saturation runs scriptable: blast with -senders 4
// -pace 0 -duration 10s and compare the daemon's /healthz datagram
// count against the sent total to find the drop point.
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/netflow"
	"repro/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:2055", "collector UDP address")
		routes    = flag.Int("routes", 600, "synthetic BGP table size")
		seed      = flag.Int64("seed", 7, "table and traffic seed")
		flows     = flag.Int("flows", 200, "concurrent flows on the link")
		intervals = flag.Int("intervals", 4, "measurement intervals to synthesize")
		interval  = flag.Duration("interval", 30*time.Second, "measurement interval length")
		meanBps   = flag.Float64("mean-bps", 2e5, "mean offered load (bit/s)")
		engineID  = flag.Int("engine", 0, "NetFlow engine ID of the first sender")
		senders   = flag.Int("senders", 1, "parallel senders, each a distinct engine ID (its own link)")
		count     = flag.Int("count", 1, "replay the datagram set this many times per sender")
		duration  = flag.Duration("duration", 0, "replay until this much time has elapsed (overrides -count)")
		pace      = flag.Duration("pace", time.Millisecond, "sleep between datagrams per sender (0 blasts)")
		single    = flag.Bool("single-link", false, "all senders share the first engine ID (one collector link, many sockets)")
	)
	flag.Parse()
	log.SetPrefix("nfreplay: ")
	log.SetFlags(0)

	if *senders < 1 {
		log.Fatalf("-senders %d, want >= 1", *senders)
	}
	idSpan := *senders
	if *single {
		idSpan = 1
	}
	if *engineID < 0 || *engineID+idSpan-1 > 255 {
		log.Fatalf("engine IDs %d..%d outside 0..255", *engineID, *engineID+idSpan-1)
	}
	if *count < 1 && *duration <= 0 {
		log.Fatalf("-count %d, want >= 1 (or a positive -duration)", *count)
	}
	table, err := bgp.Generate(bgp.GenConfig{Routes: *routes, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Name:        "replay",
		Profile:     trace.FlatProfile(),
		MeanLoadBps: *meanBps,
		Flows:       *flows,
		Table:       table,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	series := link.GenerateSeries(start, *interval, *intervals)
	var capture bytes.Buffer
	if _, err := trace.NewPacketEmitter(*seed+1).Emit(&capture, series); err != nil {
		log.Fatal(err)
	}

	// Synthesize and encode the datagram set once; every sender replays
	// copies of these wire bytes.
	var wires [][]byte
	exporter := netflow.NewExporter(netflow.ExporterConfig{
		ActiveTimeout:   *interval,
		InactiveTimeout: *interval / 3,
		EngineID:        uint8(*engineID),
	}, func(dg *netflow.Datagram) error {
		wire, err := dg.Encode(nil)
		if err != nil {
			return err
		}
		wires = append(wires, append([]byte(nil), wire...))
		return nil
	})
	src, err := agg.NewPcapPacketSource(bytes.NewReader(capture.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	for {
		ts, sum, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := exporter.AddPacket(ts, sum); err != nil {
			log.Fatal(err)
		}
	}
	if err := exporter.Flush(); err != nil {
		log.Fatal(err)
	}
	if len(wires) == 0 {
		log.Fatal("exporter produced no datagrams")
	}

	// Per-repetition clock advance: one trace span, so repeated records
	// stay in the collector's open window instead of dropping late.
	spanSecs := uint32((*interval).Seconds() * float64(*intervals))
	if spanSecs == 0 {
		spanSecs = 1
	}

	type tally struct {
		datagrams, records, bytesOnWire uint64
	}
	tallies := make([]tally, *senders)
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < *senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn, err := net.Dial("udp", *addr)
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			// Private copy: each sender patches its engine ID (its own
			// link at the collector, unless -single-link pins them all to
			// one) and per-repetition clock in place.
			mine := make([][]byte, len(wires))
			baseSecs := make([]uint32, len(wires))
			recs := make([]uint64, len(wires))
			for i, w := range wires {
				mine[i] = append([]byte(nil), w...)
				if !*single {
					mine[i][21] = byte(*engineID + s) // v5 header engine ID
				}
				baseSecs[i] = binary.BigEndian.Uint32(w[8:12])
				recs[i] = uint64(binary.BigEndian.Uint16(w[2:4]))
			}
			ta := &tallies[s]
			for rep := 0; ; rep++ {
				if *duration > 0 {
					if time.Since(t0) >= *duration {
						return
					}
				} else if rep >= *count {
					return
				}
				shift := uint32(rep) * spanSecs
				for i, w := range mine {
					if *duration > 0 && i%64 == 0 && time.Since(t0) >= *duration {
						return
					}
					binary.BigEndian.PutUint32(w[8:12], baseSecs[i]+shift)
					if _, err := conn.Write(w); err != nil {
						log.Fatal(err)
					}
					ta.datagrams++
					ta.records += recs[i]
					ta.bytesOnWire += uint64(len(w))
					if *pace > 0 {
						time.Sleep(*pace)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	var total tally
	for _, ta := range tallies {
		total.datagrams += ta.datagrams
		total.records += ta.records
		total.bytesOnWire += ta.bytesOnWire
	}
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Printf("nfreplay: sent %d records in %d datagrams (%.1f KiB) to %s — %d senders × %d intervals of %v, %d flows\n",
		total.records, total.datagrams, float64(total.bytesOnWire)/1024, *addr, *senders, *intervals, *interval, *flows)
	fmt.Printf("nfreplay: achieved %.0f datagrams/s, %.0f records/s, %.2f Mbit/s over %v\n",
		float64(total.datagrams)/secs, float64(total.records)/secs,
		float64(total.bytesOnWire)*8/1e6/secs, elapsed.Round(time.Millisecond))
}
