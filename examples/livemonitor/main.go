// Live monitor: online elephant classification of a streaming feed.
//
// This example runs the repository's streaming ingestion stack end to
// end, the deployment shape the paper implies: a link's traffic arrives
// as a stream of prefix-attributable records (here from the synthetic
// generator's incremental mode; a real deployment would plug in
// agg.PacketRecordSource or netflow.RecordSource), a bounded-memory
// accumulator closes each measurement interval as time advances, and
// every closed interval is pushed straight into the classification
// pipeline. Nothing ever materialises the full trace: memory is
// bounded by the accumulator's window (here the latent-heat lookback,
// 12 five-minute slots), no matter how long the link is monitored.
//
// The monitor prints a rolling status line per interval, flagging
// promotions and demotions (the reroute events a TE controller would
// act on).
//
// Run with:
//
//	go run ./examples/livemonitor
//
// With -daemon the example becomes a client of a running elephantd
// instead: it fetches every link from the daemon's HTTP API and renders
// each link's /history as ASCII charts (load and elephant count over
// the retained intervals) plus the current elephant set — a terminal
// dashboard over the serving subsystem:
//
//	elephantd -gen-routes 600 -gen-seed 7 -udp 127.0.0.1:2055 -http 127.0.0.1:8055 &
//	nfreplay -addr 127.0.0.1:2055 -routes 600 -seed 7 -intervals 20
//	go run ./examples/livemonitor -daemon http://127.0.0.1:8055
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scheme"
	"repro/internal/trace"
)

func main() {
	daemon := flag.String("daemon", "", "base URL of a running elephantd (e.g. http://127.0.0.1:8055); empty runs the in-process demo")
	flag.Parse()
	if *daemon != "" {
		if err := monitorDaemon(*daemon); err != nil {
			log.Fatal(err)
		}
		return
	}
	runLocal()
}

// linksPage, linkSummary, intervalSummary and elephantsPage mirror the
// daemon's JSON shapes (only the fields the dashboard renders).
type linksPage struct {
	Links     []linkSummary  `json:"links"`
	Pipelines []linkPipeline `json:"pipelines"`
}

type linkPipeline struct {
	Link   string `json:"link"`
	Stalls uint64 `json:"stalls"`
}

type linkSummary struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

type intervalSummary struct {
	Interval     int     `json:"interval"`
	TotalLoadBps float64 `json:"total_load_bps"`
	Elephants    int     `json:"elephants"`
	LoadFraction float64 `json:"load_fraction"`
	Promoted     int     `json:"promoted"`
	Demoted      int     `json:"demoted"`
}

type historyPage struct {
	Entries []intervalSummary `json:"entries"`
}

type elephantsPage struct {
	Interval     int      `json:"interval"`
	ThresholdBps float64  `json:"threshold_bps"`
	Flows        []string `json:"flows"`
}

// monitorDaemon renders one dashboard pass over a running elephantd.
func monitorDaemon(base string) error {
	var page linksPage
	if err := getJSON(base+"/links", &page); err != nil {
		return err
	}
	links := page.Links
	if len(links) == 0 {
		fmt.Println("daemon knows no links yet — point an exporter (e.g. cmd/nfreplay) at its UDP port")
		return nil
	}
	pipes := make(map[string]linkPipeline, len(page.Pipelines))
	for _, p := range page.Pipelines {
		pipes[p.Link] = p
	}
	for _, l := range links {
		if l.Error != "" {
			fmt.Printf("link %s: FAILED: %s\n\n", l.ID, l.Error)
			continue
		}
		var hist historyPage
		if err := getJSON(base+"/links/"+url.PathEscape(l.ID)+"/history", &hist); err != nil {
			return err
		}
		if len(hist.Entries) == 0 {
			fmt.Printf("link %s: no closed intervals yet\n\n", l.ID)
			continue
		}
		load := make([]float64, len(hist.Entries))
		count := make([]float64, len(hist.Entries))
		churn := make([]float64, len(hist.Entries))
		for i, e := range hist.Entries {
			load[i] = e.TotalLoadBps / 1e6
			count[i] = float64(e.Elephants)
			churn[i] = float64(e.Promoted + e.Demoted)
		}
		if err := report.Chart(os.Stdout, report.ChartConfig{
			Width: 64, Height: 10,
			Title:  fmt.Sprintf("link %s — last %d intervals", l.ID, len(hist.Entries)),
			XLabel: "interval",
		}, report.Series{Label: "load Mb/s", Values: load}); err != nil {
			return err
		}
		if err := report.Chart(os.Stdout, report.ChartConfig{
			Width: 64, Height: 8,
			XLabel: "interval",
		}, report.Series{Label: "elephants", Values: count}); err != nil {
			return err
		}
		fmt.Printf("churn (promoted+demoted): %s\n", report.Sparkline(churn))

		var cur elephantsPage
		if err := getJSON(base+"/links/"+url.PathEscape(l.ID)+"/elephants", &cur); err != nil {
			return err
		}
		fmt.Printf("current elephants (interval %d, θ̂ = %.3f Mb/s): %d flows\n",
			cur.Interval, cur.ThresholdBps/1e6, len(cur.Flows))
		for i, f := range cur.Flows {
			if i == 10 {
				fmt.Printf("  … %d more\n", len(cur.Flows)-10)
				break
			}
			fmt.Printf("  %s\n", f)
		}

		// The flight recorder adds the operational view the summaries
		// lack: per-interval stage timings, the watermark lag each
		// interval was sealed under, and how much of each classify ran
		// overlapped with accumulation. Links known only from a previous
		// run have no live recorder; skip quietly then.
		if traces, err := getTraces(base + "/links/" + url.PathEscape(l.ID) + "/debug/intervals"); err == nil && len(traces) > 0 {
			stepUs := make([]float64, len(traces))
			lagS := make([]float64, len(traces))
			overlapUs := make([]float64, len(traces))
			for i, tr := range traces {
				stepUs[i] = float64(tr.StepNanos) / 1e3
				lagS[i] = float64(tr.WatermarkLagNanos) / 1e9
				overlapUs[i] = float64(tr.StageOverlapNanos) / 1e3
			}
			last := traces[len(traces)-1]
			fmt.Printf("flight recorder (%d traces): step µs %s  watermark lag s %s\n",
				len(traces), report.Sparkline(stepUs), report.Sparkline(lagS))
			fmt.Printf("  stage overlap µs %s (classify time spent alongside accumulation)\n",
				report.Sparkline(overlapUs))
			fmt.Printf("  last seal: step %.0f µs (detect %.0f, classify %.0f), lag %.1fs, churn +%d/-%d\n",
				float64(last.StepNanos)/1e3, float64(last.DetectNanos)/1e3,
				float64(last.ClassifyNanos)/1e3, float64(last.WatermarkLagNanos)/1e9,
				last.Promoted, last.Demoted)
		}
		// The pipeline row shows whether ingest ever stalled on a full
		// record queue.
		if p, ok := pipes[l.ID]; ok {
			fmt.Printf("stalls %d\n", p.Stalls)
		}
		fmt.Println()
	}
	return nil
}

// getTraces fetches and decodes a link's flight-recorder JSONL.
func getTraces(url string) ([]obs.IntervalTrace, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var traces []obs.IntervalTrace
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var tr obs.IntervalTrace
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, sc.Err()
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func runLocal() {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 4000, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Name:        "live",
		Profile:     trace.WestCoastProfile(),
		MeanLoadBps: 80e6,
		Flows:       1200,
		Table:       table,
		Seed:        11,
	})
	if err != nil {
		log.Fatal(err)
	}

	const intervals = 36 // 3 hours of 5-minute slots
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	// The feed: records one interval at a time, generated on demand —
	// the link's full bandwidth matrix never exists.
	feed := link.Stream(start, 5*time.Minute, intervals)

	// The scheme comes from the registry: the paper's constant-load
	// detector plus latent heat. Swapping in any other registered spec
	// ("aest+latent", "spacesaving:k=100", ...) changes nothing below.
	sp := scheme.MustParse("load+latent")
	cfg, err := sp.Config()
	if err != nil {
		log.Fatal(err)
	}
	// The same instrumentation the daemon attaches per link works on a
	// local pipeline: the metrics bundle observes every step (stage
	// histograms, churn counters) and the flight recorder keeps the last
	// traces — both allocation-free on the hot path.
	om := obs.NewLinkMetrics(obs.NewRegistry(), "live@0", obs.DefaultStageBounds())
	cfg.Observer = om
	fr := obs.NewFlightRecorder(intervals)
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The accumulator windows the record stream into intervals and
	// pushes each closed interval into the pipeline. Its window is
	// derived from the scheme (the latent-heat lookback, floored at
	// agg.DefaultStreamWindow), so ingestion holds no more history than
	// classification needs — the same rule cmd/elephants uses.
	// Sharing the pipeline's flow table makes emitted snapshots carry
	// dense flow IDs the classifier indexes directly (omitting it also
	// works — the pipeline translates the IDs of the accumulator's
	// private table into its own — but then the link keeps two tables).
	acc, err := agg.NewStreamAccumulator(agg.StreamConfig{
		Start:    start,
		Interval: 5 * time.Minute,
		Window:   engine.StreamWindow(sp, 0),
		Table:    pipe.Table(),
	})
	if err != nil {
		log.Fatal(err)
	}
	var prev core.ElephantSet
	acc.Emit = func(t int, snap *core.FlowSnapshot) error {
		res, err := pipe.StepSnapshot(t, snap)
		if err != nil {
			return err
		}
		o := om.Last()
		fr.Record(obs.IntervalTrace{
			Interval:          t,
			SealedUnixNanos:   time.Now().UnixNano(),
			DetectNanos:       o.DetectNanos,
			ClassifyNanos:     o.ClassifyNanos,
			FinalizeNanos:     o.FinalizeNanos,
			StepNanos:         o.StepNanos,
			RawThreshold:      o.RawThreshold,
			Threshold:         o.Threshold,
			TotalLoad:         o.TotalLoad,
			ElephantLoad:      o.ElephantLoad,
			ActiveFlows:       o.ActiveFlows,
			Elephants:         o.Elephants,
			Promoted:          o.Promoted,
			Demoted:           o.Demoted,
			WatermarkLagNanos: int64(acc.WatermarkLag()),
		})
		promoted, demoted := diff(prev, res.Elephants)
		fmt.Printf("[%s] flows=%4d elephants=%3d load=%5.1f Mb/s eleph=%.2f",
			acc.IntervalTime(t).Format("15:04"), res.ActiveFlows, res.ElephantCount(),
			res.TotalLoad/1e6, res.LoadFraction())
		if len(promoted) > 0 {
			fmt.Printf("  +%d promoted (e.g. %s)", len(promoted), promoted[0])
		}
		if len(demoted) > 0 {
			fmt.Printf("  -%d demoted (e.g. %s)", len(demoted), demoted[0])
		}
		fmt.Println()
		prev = res.Elephants
		return nil
	}

	if err := agg.Stream(feed, acc); err != nil {
		log.Fatal(err)
	}

	// The instrumented run leaves an operational digest behind: stage
	// timings from the histograms, churn totals from the counters, and
	// the per-interval step times from the flight recorder.
	if n := om.Step.Count(); n > 0 {
		stepUs := make([]float64, 0, fr.Len())
		for _, tr := range fr.Snapshot() {
			stepUs = append(stepUs, float64(tr.StepNanos)/1e3)
		}
		fmt.Printf("\nstage timings over %d intervals: step mean %.0f µs (detect %.0f, classify %.0f); churn +%d/-%d\n",
			n, om.Step.Sum()/float64(n)*1e6, om.Detect.Sum()/float64(n)*1e6,
			om.Classify.Sum()/float64(n)*1e6, om.Promoted.Value(), om.Demoted.Value())
		fmt.Printf("step µs per interval: %s\n", report.Sparkline(stepUs))
	}
}

// diff returns prefixes entering and leaving the elephant set, sorted
// for stable output.
func diff(prev, cur core.ElephantSet) (promoted, demoted []string) {
	for _, p := range cur.Flows() {
		if !prev.Contains(p) {
			promoted = append(promoted, p.String())
		}
	}
	for _, p := range prev.Flows() {
		if !cur.Contains(p) {
			demoted = append(demoted, p.String())
		}
	}
	sort.Strings(promoted)
	sort.Strings(demoted)
	return promoted, demoted
}
