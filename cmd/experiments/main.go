// Command experiments regenerates every figure and quantitative claim of
// the paper "A Pragmatic Definition of Elephants in Internet Backbone
// Traffic" (Papagiannaki et al., IMC 2002) on the synthetic two-link
// setup, section by section from internal/experiments' section table.
// Stdout is the record — text tables plus ASCII charts, byte-identical
// from run to run (the two wall-clock lines go to stderr); -csvdir
// additionally dumps each figure's series as CSV for external plotting.
//
// Usage:
//
//	experiments [-quick] [-only fig1a,fig1b,...] [-csvdir DIR] [-seed N]
//
// -cpuprofile and -memprofile write pprof profiles covering the figure
// runs (setup included), making the command double as the profiling
// harness for the classification hot path at paper scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scheme"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "run at reduced scale (fast; shapes only)")
		only       = flag.String("only", "", "comma-separated subset: "+strings.Join(experiments.SectionKeys(), ","))
		csvdir     = flag.String("csvdir", "", "directory to write per-figure CSV files (created if missing)")
		seed       = flag.Int64("seed", 1, "random seed for the synthetic workload")
		charts     = flag.Bool("charts", true, "render ASCII charts")
		schemeSpec = flag.String("scheme", "load+latent", "scheme used by the interval/sampling sections;\n"+scheme.FlagUsage())
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering the selected sections to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the selected sections to this file")
	)
	flag.Parse()

	// A parse error's text enumerates the registered schemes.
	sp, err := scheme.ParseValidated(*schemeSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	sections, err := experiments.SelectSections(sp, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	runErr := run(os.Stdout, *quick, sections, *csvdir, *seed, *charts)
	// Flushed before the os.Exit paths below, which skip deferred calls.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		f.Close()
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(w io.Writer, quick bool, sections []experiments.Section, csvdir string, seed int64, charts bool) error {
	cfg := experiments.LinksConfig{Seed: seed}
	if quick {
		cfg = experiments.SmallConfig()
		cfg.Seed = seed
	}
	start := time.Now()
	ls, err := experiments.BuildLinks(cfg)
	if err != nil {
		return err
	}
	// The two wall-clock lines go to stderr: stdout is the record, and
	// byte-identical from run to run.
	fmt.Fprintf(w, "# Building synthetic two-link setup (routes=%d flows=%d intervals=%d seed=%d)\n",
		ls.Cfg.Routes, ls.Cfg.Flows, ls.Cfg.Intervals, ls.Cfg.Seed)
	fmt.Fprintf(os.Stderr, "# Setup ready in %v: west flows=%d east flows=%d\n",
		time.Since(start).Round(time.Millisecond), ls.West.NumFlows(), ls.East.NumFlows())
	fmt.Fprintln(w)

	rec := experiments.Record{Links: ls, W: w, Charts: charts, CSVDir: csvdir}
	if err := rec.Write(sections); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# Done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
