// Command elephantd is the live monitoring daemon: it listens for
// NetFlow v5 datagrams over UDP, demultiplexes them into per-link
// classification pipelines (exporter source address @ engine ID names
// a link), and serves the current elephant sets, recent history and
// Prometheus metrics over HTTP — the paper's classification running
// resident at a POP instead of over a finite trace.
//
// HTTP API:
//
//	GET /healthz                liveness + daemon-wide ingest counters
//	                            + per-link staleness and readiness
//	GET /readyz                 readiness probe: 503 once every link
//	                            has gone -stale-after without sealing
//	                            an interval
//	GET /links                  every known link, summarised
//	GET /links/{id}/elephants   the link's current elephant set
//	GET /links/{id}/history     recent interval summaries
//	                            (?n=COUNT limits, ?flows=1 adds sets)
//	GET /links/{id}/debug/intervals
//	                            the same -history retained intervals as
//	                            JSONL trace lines: stage timings, raw and
//	                            smoothed thresholds, churn, seal-time
//	                            watermark lag and stage overlap
//	GET /metrics                Prometheus text exposition, including
//	                            per-link stage-latency histograms, churn
//	                            counters and the watermark-lag gauge
//	GET /debug/pprof/...        runtime profiles (only with -pprof)
//
// Flags:
//
//	-udp addr       NetFlow v5 listen address (default ":2055")
//	-readers N      UDP ingest reader goroutines (default min(GOMAXPROCS, 8));
//	                each reader owns a SO_REUSEPORT socket (the kernel
//	                hashes each sending socket to a fixed reader, so a
//	                link exported from one source port keeps its record
//	                order); a platform without the option runs one
//	                reader on one socket
//	-http addr      HTTP API listen address (default ":8055")
//	-table path     BGP table file attributing records to prefixes — the
//	                deployment's own routes; mutually exclusive with
//	                -gen-routes
//	-gen-routes N   synthesize an N-route table instead of -table
//	                (demo/smoke mode; pair with cmd/nfreplay -routes N
//	                -seed S so both sides share the table)
//	-gen-seed S     seed for -gen-routes (default 1)
//	-scheme SPEC    classification scheme from the registry
//	                (default "load+latent"; see -scheme help)
//	-alpha A        EWMA weight on the previous smoothed threshold
//	-interval D     measurement interval Δ (default 5m)
//	-window N       open-interval window override; 0 derives it from
//	                the scheme's latent-heat lookback (a deployment
//	                sets it to its exporters' active timeout in
//	                intervals: records older than the window are late)
//	-history N      closed intervals retained per link, for /history
//	                and /debug/intervals alike (default 288 — a day of
//	                five-minute slots, 208 bytes each)
//	-buffer N       per-link record queue capacity in records, rounded
//	                up to whole 32-record batches (default 4096: 128
//	                batches, at worst 321 KiB a link, allocated only
//	                as a link's backlog grows; sized to the burst a
//	                reader finds in its socket, so host-dependent)
//	-stale-after D  link staleness threshold for /readyz (default 3×Δ)
//	-pprof          serve net/http/pprof under /debug/pprof/ (off by
//	                default: the profiling surface is a debugging aid,
//	                not part of the query API)
//	-grace D        shutdown grace period on SIGINT/SIGTERM (default 10s)
//
// Run a self-contained demo:
//
//	elephantd -gen-routes 600 -gen-seed 7 -udp 127.0.0.1:2055 -http 127.0.0.1:8055 &
//	nfreplay -addr 127.0.0.1:2055 -routes 600 -seed 7
//	curl -s http://127.0.0.1:8055/links
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bgp"
	"repro/internal/scheme"
	"repro/internal/serve"
)

func main() {
	var (
		udpAddr    = flag.String("udp", ":2055", "NetFlow v5 listen address")
		readers    = flag.Int("readers", serve.DefaultReaders(), "UDP ingest reader goroutines (SO_REUSEPORT sharded where supported)")
		httpAddr   = flag.String("http", ":8055", "HTTP API listen address")
		tablePath  = flag.String("table", "", "BGP table path — the deployment's own routes, which decide what a flow is (or use -gen-routes)")
		genRoutes  = flag.Int("gen-routes", 0, "synthesize a BGP table with this many routes instead of -table")
		genSeed    = flag.Int64("gen-seed", 1, "seed for -gen-routes")
		schemeSpec = flag.String("scheme", "load+latent", "which detector and classifier define an elephant is the deployment's decision, one for every link; "+scheme.FlagUsage())
		alpha      = flag.Float64("alpha", scheme.DefaultAlpha, "EWMA weight on the previous smoothed threshold")
		interval   = flag.Duration("interval", serve.DefaultInterval, "measurement interval")
		window     = flag.Int("window", 0, "open-interval window (memory bound); 0 derives it from the scheme — set it to the exporters' active timeout in intervals, since records older than the window are dropped as late")
		history    = flag.Int("history", serve.DefaultHistory, "closed intervals retained per link, served by /links/{id}/history and /links/{id}/debug/intervals")
		buffer     = flag.Int("buffer", 0, "per-link record queue capacity in records, rounded up to whole 32-record batches; 0 selects the engine default, 4096 records (128 batches, at worst 321 KiB a link, allocated only as a link's backlog grows) — sized to the burst a reader finds waiting in its socket, which depends on the host")
		staleAfter = flag.Duration("stale-after", 0, "per-link staleness threshold for /readyz; 0 selects 3x the interval")
		pprofFlag  = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/ on the API listener (off by default)")
		grace      = flag.Duration("grace", 10*time.Second, "graceful shutdown window on SIGINT/SIGTERM")
	)
	flag.Parse()

	log.SetPrefix("elephantd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	sp, err := scheme.Parse(*schemeSpec)
	if err == nil {
		sp.Alpha = *alpha
		err = sp.Validate()
	}
	// serve.Config reads zero as "the default"; on the command line a
	// non-positive value is a mistake, not a request for it.
	if err == nil && *interval <= 0 {
		err = fmt.Errorf("-interval %v must be positive", *interval)
	}
	if err == nil && *history <= 0 {
		err = fmt.Errorf("-history %d must be positive", *history)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "elephantd:", err)
		os.Exit(2)
	}

	table, err := loadTable(*tablePath, *genRoutes, *genSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elephantd:", err)
		os.Exit(2)
	}

	d, err := serve.NewDaemon(serve.Config{
		UDPAddr:    *udpAddr,
		HTTPAddr:   *httpAddr,
		Table:      table,
		Scheme:     sp,
		Readers:    *readers,
		Interval:   *interval,
		Window:     *window,
		History:    *history,
		Buffer:     *buffer,
		StaleAfter: *staleAfter,
		Pprof:      *pprofFlag,
		Logf:       log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elephantd:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.Run(ctx, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "elephantd:", err)
		os.Exit(1)
	}
}

func loadTable(path string, genRoutes int, genSeed int64) (*bgp.Table, error) {
	switch {
	case path != "" && genRoutes > 0:
		return nil, fmt.Errorf("-table and -gen-routes are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		table, err := bgp.ReadText(bufio.NewReader(f))
		if err != nil {
			return nil, fmt.Errorf("reading BGP table: %w", err)
		}
		return table, nil
	case genRoutes > 0:
		return bgp.Generate(bgp.GenConfig{Routes: genRoutes, Seed: genSeed})
	default:
		return nil, fmt.Errorf("a BGP table is required: -table PATH or -gen-routes N")
	}
}
