// Command tracegen synthesizes a backbone packet trace and writes it as
// a classic-format pcap file, alongside the BGP table (text format) used
// to pick destination prefixes. The resulting pair feeds cmd/elephants,
// exercising the full capture-to-classification pipeline.
//
// To check that the trace carries elephants before feeding it onward,
// run cmd/elephants on the pair just written.
//
// Usage:
//
//	tracegen -out trace.pcap -table table.txt [-profile west|east|flat]
//	         [-routes N] [-flows N] [-intervals N] [-interval 5m]
//	         [-load 300e6] [-seed N]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	var (
		out       = flag.String("out", "trace.pcap", "output pcap path")
		tableOut  = flag.String("table", "table.txt", "output BGP table path (text format)")
		profile   = flag.String("profile", "west", "diurnal profile: west, east or flat")
		routes    = flag.Int("routes", 20000, "BGP table size")
		flows     = flag.Int("flows", 5000, "active prefix flows")
		intervals = flag.Int("intervals", 48, "number of measurement intervals")
		interval  = flag.Duration("interval", 5*time.Minute, "measurement interval")
		load      = flag.Float64("load", 50e6, "mean link load in bit/s")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	if err := run(*out, *tableOut, *profile, *routes, *flows, *intervals, *interval, *load, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(out, tableOut, profile string, routes, flows, intervals int, interval time.Duration, load float64, seed int64) error {
	var prof trace.DiurnalProfile
	switch profile {
	case "west":
		prof = trace.WestCoastProfile()
	case "east":
		prof = trace.EastCoastProfile()
	case "flat":
		prof = trace.FlatProfile()
	default:
		return fmt.Errorf("unknown profile %q (want west, east or flat)", profile)
	}

	table, err := bgp.Generate(bgp.GenConfig{Routes: routes, Seed: seed})
	if err != nil {
		return fmt.Errorf("generating BGP table: %w", err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Name:        profile,
		Profile:     prof,
		MeanLoadBps: load,
		Flows:       flows,
		Table:       table,
		Seed:        seed,
	})
	if err != nil {
		return fmt.Errorf("building link: %w", err)
	}

	series := link.GenerateSeries(experiments.TraceStart, interval, intervals)

	tf, err := os.Create(tableOut)
	if err != nil {
		return err
	}
	defer tf.Close()
	tw := bufio.NewWriter(tf)
	if err := table.WriteText(tw); err != nil {
		return fmt.Errorf("writing BGP table: %w", err)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	pf, err := os.Create(out)
	if err != nil {
		return err
	}
	defer pf.Close()
	pw := bufio.NewWriterSize(pf, 1<<20)
	em := trace.NewPacketEmitter(seed + 1)
	start := time.Now()
	n, err := em.Emit(pw, series)
	if err != nil {
		return fmt.Errorf("emitting packets: %w", err)
	}
	if err := pw.Flush(); err != nil {
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}

	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d packets, %.1f MiB, %d flows, %d x %v intervals (%v)\n",
		out, n, float64(fi.Size())/(1<<20), series.NumFlows(), intervals, interval,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("wrote %s: %d routes\n", tableOut, table.Len())
	return nil
}
