package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

const (
	// maxInFlight bounds the datagrams sent but not yet accounted by the
	// daemon. It has to cover the generator's wake-up latency: a 100 µs
	// Go sleep on this host takes 0.3 ms at the median and 1.5-5 ms at the
	// 99th percentile (an idle scheduler rounds timers up to 1 ms), and at
	// ~20 µs a datagram the issue's window of 32 ran dry on one poll in
	// seven, making the run 20-30 % slower and as steady as the host's
	// timers (gen.starved_ratio reports it). 128 full datagrams cost the
	// socket ~290 KiB (2304 B of kernel memory each), inside the 416 KiB
	// the daemon is granted under Linux's default rmem_max, so a run still
	// loses nothing by construction and a loss is a finding, not noise.
	maxInFlight = 128
	// creditBackoff is how long the generator sleeps when the window is
	// full. It never spins: on a 2-CPU host a spinning generator would
	// take a core from the daemon it is measuring.
	creditBackoff = 100 * time.Microsecond
	// creditStall is how long the window may stay full without progress
	// before the run is abandoned as having lost datagrams.
	creditStall = 5 * time.Second

	scrapeEvery = 50 * time.Millisecond
	queryEvery  = 10 * time.Millisecond
	lagPollEach = 250 * time.Microsecond
	httpTimeout = 5 * time.Second
	drainWithin = 30 * time.Second
)

// creditWindow is the generator's closed-loop flow control: at most
// limit datagrams may be sent beyond what the daemon has accounted.
type creditWindow struct {
	limit int
	sent  uint64
	acked uint64
}

func (w *creditWindow) canSend() bool { return w.sent-w.acked < uint64(w.limit) }

// ack records the daemon's cumulative accounted count and reports
// whether it advanced.
func (w *creditWindow) ack(total uint64) bool {
	if total <= w.acked {
		return false
	}
	w.acked = total
	return true
}

// liveInputs is a live workload's set-up: the record inputs plus a
// started daemon on loopback ports the kernel chose.
type liveInputs struct {
	*recordInputs
	d *serve.Daemon
}

func buildLiveInputs(shape linkShape, seed int64) (*liveInputs, error) {
	in, err := buildRecordInputs(shape, seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(in)
	if err != nil {
		return nil, err
	}
	return &liveInputs{in, d}, nil
}

// startDaemon starts the daemon under test at serve.Config zero values
// apart from addresses, table, scheme, interval, start and a history
// ring sized to hold the whole run.
func startDaemon(in *recordInputs) (*serve.Daemon, error) {
	d, err := serve.NewDaemon(serve.Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    in.table,
		Scheme:   in.spec,
		Interval: benchInterval,
		Start:    traceStart,
		History:  recordMaxReps * intervalsPerRep,
	})
	if err != nil {
		return nil, err
	}
	d.Start()
	return d, nil
}

func stopDaemon(d *serve.Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainWithin)
	defer cancel()
	return d.Shutdown(ctx)
}

// liveOptions selects what runs beside the generator.
type liveOptions struct {
	scrape bool // the workload's HTTP reader (live_many_links)
	lag    bool // publish-lag poller (traced runs only)
}

// liveRun is one live section's raw outcome.
type liveRun struct {
	reps      int
	datagrams uint64 // sent
	records   uint64 // sent
	rates     []float64
	genWall   time.Duration
	blocked   time.Duration
	polls     int // credit polls made with the window full
	starved   int // of those, the ones that found nothing left in flight

	summaries []serve.LinkSummary         // after DrainIngest
	history   map[string][]intervalDigest // per link, whole run

	scrapeMs, queryMs []float64
	scrapeBytes       []float64
	reads, readsBad   int
	lagMs             []float64
	metricsPage       string // final /metrics, traced runs
}

// ingested sums the datagrams the daemon has accounted to links.
func ingested(d *serve.Daemon) uint64 {
	var n uint64
	for _, row := range d.Store().Summaries() {
		n += row.Ingest.Datagrams
	}
	return n
}

// runLive sends the wire set to the daemon over loopback UDP from this
// goroutine, one repetition after the other under the credit window,
// then drains the daemon and collects what it published. The daemon is
// shut down before runLive returns, whatever happens.
func runLive(in *liveInputs, clock *repClock, opt liveOptions) (run *liveRun, err error) {
	d := in.d
	defer func() {
		if serr := stopDaemon(d); serr != nil && err == nil {
			err = fmt.Errorf("daemon shutdown: %w", serr)
		}
	}()
	conn, err := net.DialUDP("udp", nil, d.UDPAddr().(*net.UDPAddr))
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	run = &liveRun{history: make(map[string][]intervalDigest)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var side sync.WaitGroup
	var lag *lagPoller
	if opt.lag {
		lag = newLagPoller(d, in.wire.links)
		side.Add(1)
		go func() { defer side.Done(); lag.run(ctx) }()
	}
	var sc *scraper
	linksUp := make(chan struct{}) // closed once every exporter has sent
	if opt.scrape {
		sc = newScraper(d, in.wire.links)
		side.Add(1)
		go func() {
			defer side.Done()
			select {
			case <-linksUp:
				sc.run(ctx)
			case <-ctx.Done():
			}
		}()
	}

	win := creditWindow{limit: maxInFlight}
	window := engine.StreamWindow(in.spec, 0)
	send := func() error {
		for rep := 0; clock.next(); rep++ {
			if rep == 1 {
				close(linksUp)
			}
			for i := 0; i < in.wire.datagrams(); i++ {
				if !win.canSend() {
					t0 := time.Now()
					for progress := t0; ; {
						if win.ack(ingested(d)) {
							progress = time.Now()
						}
						run.polls++
						if win.sent == win.acked {
							run.starved++
						}
						if win.canSend() {
							break
						}
						if time.Since(progress) > creditStall {
							return fmt.Errorf("daemon accounted %d of %d datagrams and stopped: datagrams were lost", win.acked, win.sent)
						}
						time.Sleep(creditBackoff)
					}
					run.blocked += time.Since(t0)
				}
				raw := in.wire.datagram(i, rep)
				if lag != nil {
					lag.sending(int(in.wire.link[i]), rep*intervalsPerRep+int(in.wire.interval[i])-window)
				}
				if _, err := conn.Write(raw); err != nil {
					return fmt.Errorf("udp send: %w", err)
				}
				win.sent++
			}
		}
		// Let the daemon account everything still in flight.
		for t0 := time.Now(); win.sent > win.acked && time.Since(t0) < creditStall; time.Sleep(creditBackoff) {
			win.ack(ingested(d))
		}
		return nil
	}
	genStart := time.Now()
	err = send()
	run.genWall = time.Since(genStart)
	cancel()
	side.Wait()
	if err != nil {
		return nil, err
	}
	run.reps = len(clock.ends)
	run.datagrams = win.sent
	run.records = uint64(run.reps * in.wire.records)
	run.rates = repRates(clock, in.wire.records)

	// Drain: the last open intervals publish here.
	dctx, dcancel := context.WithTimeout(context.Background(), drainWithin)
	defer dcancel()
	if err := d.DrainIngest(dctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	run.summaries = d.Store().Summaries()
	for _, row := range run.summaries {
		run.history[row.ID] = digestHistory(d.Store().Get(row.ID).History(0, true))
	}
	if lag != nil {
		run.lagMs = lag.lagsMs()
		// The API keeps serving after DrainIngest: read the daemon's own
		// stage histograms from its final page.
		client := newHTTPClient()
		page, _, err := httpGet(client, "http://"+d.HTTPAddr().String()+"/metrics")
		client.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("final /metrics: %w", err)
		}
		run.metricsPage = string(page)
	}
	if sc != nil {
		run.scrapeMs, run.scrapeBytes, run.queryMs = sc.scrapeMs, sc.scrapeBytes, sc.queryMs
		run.reads, run.readsBad = sc.reads, sc.bad
	}
	return run, nil
}

// newHTTPClient returns a client with a transport of its own, so that
// closing its idle connections leaves nothing open behind a run.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: httpTimeout, Transport: &http.Transport{}}
}

func httpGet(c *http.Client, url string) (body []byte, status int, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// scraper is live_many_links' reader: GET /metrics every scrapeEvery
// and, between scrapes, GET /links/{id}/elephants round-robin over the
// links every queryEvery — reads beside writes on the store and the
// metrics registry. Its fields are read after run returns.
type scraper struct {
	base   string
	links  int
	client *http.Client

	scrapeMs, scrapeBytes, queryMs []float64
	reads, bad                     int
}

func newScraper(d *serve.Daemon, links int) *scraper {
	return &scraper{
		base:   "http://" + d.HTTPAddr().String(),
		links:  links,
		client: newHTTPClient(),
	}
}

func (s *scraper) run(ctx context.Context) {
	defer s.client.CloseIdleConnections()
	tick := time.NewTicker(queryEvery)
	defer tick.Stop()
	perScrape := int(scrapeEvery / queryEvery)
	for n := 0; ; n++ {
		if n%perScrape == 0 {
			t0 := time.Now()
			body, status, err := httpGet(s.client, s.base+"/metrics")
			s.reads++
			if err != nil || status != http.StatusOK || !bytes.Contains(body, []byte("elephantd_link_records_total")) {
				s.bad++
			} else {
				s.scrapeMs = append(s.scrapeMs, float64(time.Since(t0).Microseconds())/1e3)
				s.scrapeBytes = append(s.scrapeBytes, float64(len(body)))
			}
		} else {
			id := linkName(n % s.links)
			t0 := time.Now()
			body, status, err := httpGet(s.client, s.base+"/links/"+id+"/elephants")
			s.reads++
			var e serve.Elephants
			if err != nil || status != http.StatusOK || json.Unmarshal(body, &e) != nil || e.Link != id || e.Count != len(e.Flows) {
				s.bad++
			} else {
				s.queryMs = append(s.queryMs, float64(time.Since(t0).Microseconds())/1e3)
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// lagPoller measures publish lag from outside the daemon: the generator
// notes when it sends the first datagram carrying interval t+window of a
// link — the datagram that closes interval t — and the poller notes
// when t first shows as the link's last published interval. The two
// sides write disjoint arrays; lagsMs joins them after both stopped.
type lagPoller struct {
	d      *serve.Daemon
	sentAt [][]int64 // [link][interval] unix nanos, 0 = not yet
	seenAt [][]int64
	seenTo []int // next interval to stamp per link
}

func newLagPoller(d *serve.Daemon, links int) *lagPoller {
	p := &lagPoller{d: d, sentAt: make([][]int64, links), seenAt: make([][]int64, links), seenTo: make([]int, links)}
	for l := range p.sentAt {
		p.sentAt[l] = make([]int64, recordMaxReps*intervalsPerRep)
		p.seenAt[l] = make([]int64, recordMaxReps*intervalsPerRep)
	}
	return p
}

// sending is called by the generator right before a datagram of link
// that closes interval closes goes out.
func (p *lagPoller) sending(link, closes int) {
	if closes >= 0 && p.sentAt[link][closes] == 0 {
		p.sentAt[link][closes] = time.Now().UnixNano()
	}
}

func (p *lagPoller) run(ctx context.Context) {
	tick := time.NewTicker(lagPollEach)
	defer tick.Stop()
	for {
		now := time.Now().UnixNano()
		for _, row := range p.d.Store().Summaries() {
			if row.Last == nil {
				continue
			}
			l, err := strconv.Atoi(row.ID[strings.IndexByte(row.ID, '@')+1:])
			if err != nil || l >= len(p.seenTo) {
				continue
			}
			for ; p.seenTo[l] <= row.Last.Interval && p.seenTo[l] < len(p.seenAt[l]); p.seenTo[l]++ {
				p.seenAt[l][p.seenTo[l]] = now
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (p *lagPoller) lagsMs() []float64 {
	var out []float64
	for l := range p.sentAt {
		// Warm-up intervals are left out, like everywhere else.
		for t := recordWarmReps * intervalsPerRep; t < len(p.sentAt[l]); t++ {
			if s, e := p.sentAt[l][t], p.seenAt[l][t]; s != 0 && e != 0 {
				out = append(out, float64(e-s)/1e6)
			}
		}
	}
	return out
}

// checkLive applies the conservation laws to a drained live run: every
// record sent was accumulated (nothing lost, undecodable, unrouted,
// dropped, late or far-future) and every link published exactly the
// expected intervals, in order.
func checkLive(out *outcome, in *recordInputs, run *liveRun) {
	expect := run.reps * intervalsPerRep
	out.attempted += run.records + uint64(expect*in.wire.links) + uint64(run.reads)
	var datagrams, inWindow uint64
	for _, row := range run.summaries {
		datagrams += row.Ingest.Datagrams
		inWindow += row.Stream.InWindow
		out.fail(int(row.Ingest.Unrouted+row.Ingest.Dropped), "link %s: %d unrouted, %d dropped", row.ID, row.Ingest.Unrouted, row.Ingest.Dropped)
		out.fail(int(row.Stream.Late+row.Stream.FarFuture), "link %s: %d late, %d far-future", row.ID, row.Stream.Late, row.Stream.FarFuture)
		if row.Error != "" {
			out.fail(1, "link %s failed: %s", row.ID, row.Error)
		}
		hist := run.history[row.ID]
		bad := absInt(len(hist) - expect)
		for i := range hist {
			if hist[i].interval != i {
				bad++
			}
		}
		out.fail(bad, "link %s published %d intervals (want %d, contiguous from 0)", row.ID, len(hist), expect)
	}
	out.fail(absInt(len(run.summaries)-in.wire.links), "%d links known to the daemon, want %d", len(run.summaries), in.wire.links)
	out.fail(int(run.datagrams-min(datagrams, run.datagrams)), "%d of %d datagrams never reached a link (lost or undecodable)", run.datagrams-datagrams, run.datagrams)
	out.fail(int(run.records-min(inWindow, run.records)), "%d of %d records were not accumulated", run.records-inWindow, run.records)
	out.fail(run.readsBad, "%d of %d HTTP reads failed", run.readsBad, run.reads)
}

// liveLayerMetrics fills the per-layer metrics only a live run has.
func liveLayerMetrics(m map[string]float64, run *liveRun) {
	m["gen.send_us_per_datagram"] = float64((run.genWall - run.blocked).Microseconds()) / float64(run.datagrams)
	m["gen.blocked_ratio"] = run.blocked.Seconds() / run.genWall.Seconds()
	m["gen.starved_ratio"] = float64(run.starved) / float64(max(run.polls, 1))
	m["engine.publish_lag_ms_p50"] = percentile(run.lagMs, 50)
	m["engine.publish_lag_ms_p90"] = percentile(run.lagMs, 90)
	stepSum, stepCount := sumSeries(run.metricsPage, "elephantd_step_duration_seconds_sum"), sumSeries(run.metricsPage, "elephantd_step_duration_seconds_count")
	if stepCount > 0 {
		m["serve.live_step_us_per_interval"] = stepSum / stepCount * 1e6
		m["engine.stage_overlap_ratio"] = sumSeries(run.metricsPage, "elephantd_stage_overlap_seconds_sum") / stepSum
	}
	m["engine.queue_stalls_per_mrecord"] = sumSeries(run.metricsPage, "elephantd_link_stalls_total") / float64(run.records) * 1e6
	m["serve.scrape_ms_p50"] = percentile(run.scrapeMs, 50)
	m["serve.scrape_ms_p90"] = percentile(run.scrapeMs, 90)
	m["serve.scrape_bytes"] = median(run.scrapeBytes)
	m["serve.query_ms_p50"] = percentile(run.queryMs, 50)
	if r := m["gen.blocked_ratio"]; r < 0.05 {
		fmt.Fprintf(os.Stderr, "bench: INVALID: gen.blocked_ratio %.3f < 0.05 — the generator, not the daemon, bounded this run\n", r)
	}
	if r := m["gen.starved_ratio"]; r > 0.10 {
		fmt.Fprintf(os.Stderr, "bench: warning: gen.starved_ratio %.3f — the generator woke too late on more than one poll in ten and the daemon sat idle\n", r)
	}
}

// sumSeries adds up every sample of one metric name on a Prometheus
// text page, whatever its labels.
func sumSeries(page, name string) float64 {
	var total float64
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// runLiveWorkload is the body both live workloads share.
func runLiveWorkload(cfg runConfig, name string, shape linkShape, scrape bool) (*outcome, error) {
	in, setupS, err := timedSetup(
		func() (*liveInputs, error) { return buildLiveInputs(shape, cfg.seed) },
		func(in *liveInputs) { _ = stopDaemon(in.d) })
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	m := out.metrics

	budget := cfg.seconds
	if cfg.traced {
		budget = cfg.seconds * 4 / 10
	}
	before := readProc()
	watch := startProcWatcher()
	run, err := runLive(in, recordClock(budget), liveOptions{scrape: scrape})
	watch.done()
	after := readProc()
	if err != nil {
		return nil, err
	}
	m["records_per_s"] = rateMedian(run.rates)
	m["bench.rep_ms_p50"] = float64(in.wire.records) / median(run.rates) * 1e3
	m["bench.timed_reps"] = float64(len(run.rates))
	checkLive(out, in.recordInputs, run)

	// Output check. One link: the whole of the stream reference's
	// repetitions, interval by interval (live ≡ stream on identical
	// input). Every link: its leading repetitions against the batch
	// engine.
	var streamRate float64
	if shape.links == 1 {
		clock := fixedReps(min(liveReferenceReps, run.reps))
		ref, _, err := streamRun(in.recordInputs, clock)
		if err != nil {
			return nil, err
		}
		// The reference stops after its last repetition where the live
		// run went on; no record crosses an interval boundary, so the
		// intervals both sealed saw the same records.
		out.fail(digestMismatches(run.history[linkName(0)], digestResults(ref)), "live_heavy_link differs from stream_replay on the same input")
		streamRate = median(repRates(clock, in.wire.records))
	}
	if err := checkAgainstBatch(out, in.recordInputs, name, func(l int) []intervalDigest { return run.history[linkName(l)] }); err != nil {
		return nil, err
	}
	if !cfg.traced {
		return out, nil
	}

	// Traced run: the live section again with the lag poller on, then
	// the staged record path over the same wire set for the layers a
	// daemon hides.
	d, err := startDaemon(in.recordInputs)
	if err != nil {
		return nil, err
	}
	traced, err := runLive(&liveInputs{in.recordInputs, d}, recordClock(cfg.seconds*4/10), liveOptions{scrape: scrape, lag: true})
	if err != nil {
		return nil, err
	}
	checkLive(out, in.recordInputs, traced)
	liveLayerMetrics(m, traced)
	m["trace.overhead_ratio"] = median(run.rates) / median(traced.rates)
	if streamRate > 0 {
		m["serve.live_over_stream_ratio"] = median(run.rates) / streamRate
	}

	tr := newTracer(recordLayers)
	sclock := &repClock{warm: recordWarmReps, min: 2, max: recordWarmReps + 2}
	sr, err := runStaged(in.recordInputs, sclock, tr)
	if err != nil {
		return nil, err
	}
	checkStaged(out, in.recordInputs, sr, len(sclock.ends))
	spans := tr.recorded()
	lo, hi := recordWarmReps*intervalsPerRep, len(sclock.ends)*intervalsPerRep
	selfSum := stagedLayerMetrics(m, sr, spans, lo, hi, in.wire.records)
	m["trace.self_time_coverage"] = selfSum.Seconds() / sclock.timedWall().Seconds()
	for l, sl := range sr.links {
		out.fail(digestMismatches(run.history[linkName(l)], digestResults(sl.results[:min(len(sl.results), referenceReps*intervalsPerRep)])),
			"staged run of link %s differs from the live run", linkName(l))
	}
	procMetrics(m, before, after, watch, float64(run.records))
	return out, writeTrace(cfg.traceOut, name, spans)
}

func runLiveHeavyLink(cfg runConfig) (*outcome, error) {
	return runLiveWorkload(cfg, "live_heavy_link", heavyShape, false)
}

func runLiveManyLinks(cfg runConfig) (*outcome, error) {
	return runLiveWorkload(cfg, "live_many_links", manyShape, true)
}
