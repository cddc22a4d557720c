// Command flowstats characterises the flow-size distribution of a pcap
// capture the way Section I of the paper characterises backbone traffic:
// per-prefix volumes, concentration (Gini, top-share), heavy-tail
// analysis (aest + Hill), and a log-log CCDF rendered as an ASCII chart.
//
// A non-empty -scheme additionally streams the capture through the
// classification pipeline under the given registry spec (bounded
// memory, window derived from the scheme's latent-heat lookback) and
// prints a per-interval elephant summary next to the whole-capture
// distribution stats.
//
// Usage:
//
//	flowstats -pcap trace.pcap -table table.txt [-top 10] [-chart]
//	          [-scheme SPEC] [-interval 5m]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scheme"
	"repro/internal/stats"
)

func main() {
	var (
		pcapPath   = flag.String("pcap", "", "input pcap path (required)")
		tablePath  = flag.String("table", "", "input BGP table path (required)")
		top        = flag.Int("top", 10, "list the top-N flows by volume")
		chart      = flag.Bool("chart", true, "render the log-log CCDF chart")
		schemeSpec = flag.String("scheme", "", "also classify the capture per interval;\n"+scheme.FlagUsage())
		interval   = flag.Duration("interval", 5*time.Minute, "measurement interval for -scheme classification")
	)
	flag.Parse()
	if *pcapPath == "" || *tablePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var sp *scheme.Spec
	if *schemeSpec != "" {
		var err error
		// A parse error's text enumerates the registered schemes.
		sp, err = scheme.ParseValidated(*schemeSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowstats:", err)
			os.Exit(2)
		}
	}
	if err := run(os.Stdout, *pcapPath, *tablePath, *top, *chart, sp, *interval); err != nil {
		fmt.Fprintln(os.Stderr, "flowstats:", err)
		os.Exit(1)
	}
}

// run prints the analysis of one capture to w.
func run(w io.Writer, pcapPath, tablePath string, top int, chart bool, sp *scheme.Spec, interval time.Duration) error {
	tf, err := os.Open(tablePath)
	if err != nil {
		return err
	}
	table, err := bgp.ReadText(bufio.NewReader(tf))
	tf.Close()
	if err != nil {
		return fmt.Errorf("reading BGP table: %w", err)
	}

	pf, err := os.Open(pcapPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	src, err := agg.NewPacketRecordSource(bufio.NewReaderSize(pf, 1<<20), table)
	if err != nil {
		return err
	}

	// Whole-capture per-prefix volumes (bytes).
	volumes := make(map[netip.Prefix]float64)
	var totalBytes float64
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		// A packet record's bits are its wire length × 8, so this is exact.
		volumes[rec.Prefix] += rec.Bits / 8
		totalBytes += rec.Bits / 8
	}
	ps := src.ParserStats()
	fmt.Fprintf(w, "capture: %d frames (%d non-IP, %d errors), %d routed flows, %d unrouted packets, %.1f MiB attributed\n\n",
		ps.Frames, ps.NonIP, ps.Errors, len(volumes), src.Stats.Unrouted, totalBytes/(1<<20))
	if len(volumes) == 0 {
		return fmt.Errorf("no attributable traffic")
	}

	prefixes, vols := byPrefix(volumes)

	// Concentration.
	sum := stats.Summarize(vols)
	gini, err := stats.Gini(vols)
	if err != nil {
		return err
	}
	top10, _ := stats.TopShare(vols, 0.10)
	top1, _ := stats.TopShare(vols, 0.01)
	tab := report.NewTable("metric", "value")
	tab.AddRow("flows", sum.N)
	tab.AddRow("mean flow volume", fmt.Sprintf("%.1f KiB", sum.Mean/1024))
	tab.AddRow("max flow volume", fmt.Sprintf("%.1f KiB", sum.Max/1024))
	tab.AddRow("gini coefficient", fmt.Sprintf("%.3f", gini))
	tab.AddRow("top 10% flows carry", fmt.Sprintf("%.1f%%", top10*100))
	tab.AddRow("top 1% flows carry", fmt.Sprintf("%.1f%%", top1*100))
	fmt.Fprint(w, tab.String())

	// Heavy-tail analysis.
	res := stats.Aest(vols, stats.AestConfig{})
	fmt.Fprintln(w)
	if res.TailFound {
		fmt.Fprintf(w, "aest: power-law tail detected from %.1f KiB (%.1f%% of flows), alpha = %.2f (slope cross-check %.2f)\n",
			res.TailOnset/1024, res.TailFraction*100, res.Alpha, res.SlopeAlpha)
		tailFlows := 0
		for _, v := range vols {
			if v >= res.TailOnset {
				tailFlows++
			}
		}
		if k := tailFlows - 1; k >= 2 {
			if h, err := stats.Hill(vols, k); err == nil {
				fmt.Fprintf(w, "hill(k=%d): alpha = %.2f\n", k, h)
			}
		}
	} else {
		fmt.Fprintln(w, "aest: no power-law tail detected")
	}

	// Top talkers.
	if top > 0 {
		type kv struct {
			p netip.Prefix
			v float64
		}
		rows := make([]kv, len(prefixes))
		for i, p := range prefixes {
			rows[i] = kv{p, vols[i]}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].p.String() < rows[j].p.String()
		})
		if top > len(rows) {
			top = len(rows)
		}
		fmt.Fprintf(w, "\ntop %d flows by volume:\n", top)
		tt := report.NewTable("prefix", "volume", "share")
		for _, r := range rows[:top] {
			tt.AddRow(r.p.String(),
				fmt.Sprintf("%.1f KiB", r.v/1024),
				fmt.Sprintf("%.2f%%", 100*r.v/totalBytes))
		}
		fmt.Fprint(w, tt.String())
	}

	// CCDF chart.
	if chart {
		c := stats.NewCCDF(vols)
		lx, lp := c.LogLog()
		fmt.Fprintln(w)
		if err := report.Chart(w, report.ChartConfig{
			Title:  "flow volume CCDF (log10 bytes vs log10 P[X>x])",
			Height: 12, XLabel: "log10 volume ->",
		}, report.Series{Label: "log10 P[X>x]", Values: lp}); err != nil {
			return err
		}
		_ = lx
	}

	// Optional classification pass: stream the capture again through
	// the scheme's pipeline with bounded memory.
	if sp != nil {
		if err := classify(w, pcapPath, table, sp, interval); err != nil {
			return fmt.Errorf("classifying capture: %w", err)
		}
	}
	return nil
}

// classify reopens the capture and classifies it per interval under the
// spec via the streaming engine path; the accumulator window follows
// the scheme's latent-heat lookback (engine.StreamWindow).
func classify(w io.Writer, pcapPath string, table *bgp.Table, sp *scheme.Spec, interval time.Duration) error {
	pf, err := os.Open(pcapPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	src, err := agg.NewPacketRecordSource(bufio.NewReaderSize(pf, 1<<20), table)
	if err != nil {
		return err
	}
	eng := engine.MultiLinkEngine{}
	lrs, err := eng.RunStreaming([]engine.StreamLink{{
		ID:       pcapPath,
		Source:   src,
		Interval: interval,
		Window:   engine.StreamWindow(sp, 0),
		Config:   sp.Factory(),
	}})
	if err != nil {
		return err
	}
	lr := lrs[0]
	if lr.Err != nil {
		return lr.Err
	}
	fmt.Fprintf(w, "\nclassification under %s (%v intervals):\n", sp.Name(), interval)
	tab := report.NewTable("metric", "value")
	tab.AddRow("intervals", len(lr.Results))
	tab.AddRow("mean active flows", fmt.Sprintf("%.1f", meanActive(lr.Results)))
	tab.AddRow("mean elephants", fmt.Sprintf("%.1f", analysis.MeanInt(analysis.CountSeries(lr.Results))))
	tab.AddRow("mean elephant load fraction", fmt.Sprintf("%.3f", analysis.MeanFloat(analysis.FractionSeries(lr.Results))))
	fmt.Fprint(w, tab.String())
	return nil
}

// byPrefix lays the per-prefix volumes out as the analysed sample, in
// core.ComparePrefix order: aest aggregates the sample in blocks, so its
// estimate depends on the order, and map order would change the tail
// lines from run to run.
func byPrefix(volumes map[netip.Prefix]float64) ([]netip.Prefix, []float64) {
	prefixes := make([]netip.Prefix, 0, len(volumes))
	for p := range volumes {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, core.ComparePrefix)
	vols := make([]float64, len(prefixes))
	for i, p := range prefixes {
		vols[i] = volumes[p]
	}
	return prefixes, vols
}

func meanActive(results []core.Result) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for i := range results {
		sum += float64(results[i].ActiveFlows)
	}
	return sum / float64(len(results))
}
