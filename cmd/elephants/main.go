// Command elephants runs the paper's classification pipeline over a pcap
// capture and a BGP table: packets are decoded, attributed to BGP
// destination prefixes by longest-prefix match, aggregated into
// measurement intervals, and classified under the scheme named by
// -scheme — any spec the registry knows, from the paper's
// "load:beta=0.8+latent:window=12" to the baseline sketches
// ("misragries:k=100"). Run with -scheme help (or any invalid spec) to
// see the registry listing.
//
// The capture is classified in a single pass with bounded memory:
// packets feed an interval accumulator that closes intervals as capture
// time advances and pushes each one straight into the pipeline
// (engine.RunStreaming), so memory is governed by the accumulator
// window, not by capture length. Classic libpcap and pcapng captures
// are both read. Interval 0 is anchored at the capture's first frame,
// routed or not; trailing intervals carrying only unrouted traffic are
// not reported.
//
// The accumulator window follows the scheme: by default it is the
// scheme's latent-heat window (so ingestion holds exactly as much
// history as classification looks back on), floored at
// agg.DefaultStreamWindow for schemes without persistence.
// -stream-window overrides the derived value explicitly; there is no
// separate latent-window flag to keep in sync.
//
// Usage:
//
//	elephants -pcap trace.pcap -table table.txt [-scheme SPEC]
//	          [-alpha 0.5] [-interval 5m] [-top 10] [-stream-window N]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pcap"
	"repro/internal/report"
	"repro/internal/scheme"
)

// errUsage marks a command-line mistake: main exits 2 on one, as the
// flag package would, and 1 on a failed run.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "elephants:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole command: parse args, classify the capture, print the
// report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("elephants", flag.ContinueOnError)
	var (
		pcapPath   = fs.String("pcap", "", "input capture path, pcap or pcapng (required)")
		tablePath  = fs.String("table", "", "input BGP table path (required)")
		schemeSpec = fs.String("scheme", "load+latent", scheme.FlagUsage())
		alpha      = fs.Float64("alpha", scheme.DefaultAlpha, "EWMA weight on the previous smoothed threshold")
		interval   = fs.Duration("interval", 5*time.Minute, "measurement interval")
		top        = fs.Int("top", 10, "print the N flows classified as elephants in the most intervals")
		swindow    = fs.Int("stream-window", 0, "open-interval window (memory bound); 0 derives it from the scheme's latent-heat window, floored at agg.DefaultStreamWindow")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *pcapPath == "" || *tablePath == "" {
		fs.Usage()
		return fmt.Errorf("%w: -pcap and -table are required", errUsage)
	}
	// A parse error's text enumerates the registered schemes.
	sp, err := scheme.Parse(*schemeSpec)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	sp.Alpha = *alpha
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *interval <= 0 {
		return fmt.Errorf("%w: -interval %v must be positive", errUsage, *interval)
	}
	if *swindow < 0 {
		return fmt.Errorf("%w: -stream-window %d must be >= 0 (0 derives it from the scheme)", errUsage, *swindow)
	}
	window := engine.StreamWindow(sp, *swindow)

	table, err := readTable(*tablePath)
	if err != nil {
		return err
	}
	pf, err := os.Open(*pcapPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	start, err := firstFrame(pf)
	if err != nil {
		return err
	}
	src, err := agg.NewPacketRecordSource(bufio.NewReaderSize(pf, 1<<20), table)
	if err != nil {
		return err
	}
	// A single capture is a one-link engine run; feeding several links
	// (one capture per monitored interface) classifies them concurrently.
	eng := engine.MultiLinkEngine{}
	lrs, err := eng.RunStreaming([]engine.StreamLink{{
		ID: *pcapPath, Source: src, Start: start, Interval: *interval, Window: window, Config: sp.Factory(),
	}})
	if err != nil {
		return err
	}
	lr := lrs[0]
	if lr.Err != nil {
		return lr.Err
	}
	if src.Stats.Routed == 0 {
		return fmt.Errorf("no routed packets in capture")
	}
	fmt.Fprintf(stdout, "capture: %d frames, %d routed, %d unrouted, %d x %v intervals (window %d, %d late records)\n",
		src.ParserStats().Frames, src.Stats.Routed, src.Stats.Unrouted, lr.Stream.Closed, *interval, window, lr.Stream.Late)

	fmt.Fprintf(stdout, "scheme: %s\n\n", sp.Name())
	tab := report.NewTable("interval", "start", "active", "elephants", "load Mb/s", "eleph frac", "theta Mb/s")
	for i, r := range lr.Results {
		tab.AddRow(i, start.Add(time.Duration(i)**interval).Format("15:04"), r.ActiveFlows, r.ElephantCount(),
			fmt.Sprintf("%.1f", r.TotalLoad/1e6),
			fmt.Sprintf("%.3f", r.LoadFraction()),
			fmt.Sprintf("%.3f", r.Threshold/1e6))
	}
	fmt.Fprint(stdout, tab.String())
	fmt.Fprintf(stdout, "\nmean elephants: %.1f   mean elephant load fraction: %.3f\n",
		analysis.MeanInt(analysis.CountSeries(lr.Results)), analysis.MeanFloat(analysis.FractionSeries(lr.Results)))
	if *top > 0 {
		printTop(stdout, lr.Results, *top)
	}
	return nil
}

func readTable(path string) (*bgp.Table, error) {
	tf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	table, err := bgp.ReadText(bufio.NewReader(tf))
	if err != nil {
		return nil, fmt.Errorf("reading BGP table: %w", err)
	}
	return table, nil
}

// firstFrame returns the capture time of the first frame — routed or
// not, decodable or not: the anchor of interval 0 — and rewinds f.
func firstFrame(f *os.File) (time.Time, error) {
	r, _, err := pcap.OpenReader(f)
	if err != nil {
		return time.Time{}, err
	}
	ci, _, err := r.ReadPacket()
	if errors.Is(err, io.EOF) {
		return time.Time{}, fmt.Errorf("empty capture")
	}
	if err != nil {
		return time.Time{}, err
	}
	_, err = f.Seek(0, io.SeekStart)
	return ci.Timestamp, err
}

// printTop lists the flows most often classified as elephants.
func printTop(w io.Writer, results []core.Result, top int) {
	counts := make(map[string]int)
	for _, r := range results {
		for _, p := range r.Elephants.Flows() {
			counts[p.String()]++
		}
	}
	type row struct {
		prefix string
		n      int
	}
	rows := make([]row, 0, len(counts))
	for p, n := range counts {
		rows = append(rows, row{p, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].prefix < rows[j].prefix
	})
	if top > len(rows) {
		top = len(rows)
	}
	fmt.Fprintf(w, "\ntop %d elephants by intervals in class:\n", top)
	tab := report.NewTable("prefix", "intervals as elephant")
	for _, r := range rows[:top] {
		tab.AddRow(r.prefix, r.n)
	}
	fmt.Fprint(w, tab.String())
}
