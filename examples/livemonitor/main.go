// Live monitor: online elephant classification of a streaming feed.
//
// This example runs one link the way the resident daemon runs each of
// its links: records arrive one at a time (here from the synthetic
// generator's incremental mode; elephantd decodes them from NetFlow) and
// are pushed into an engine.LivePipeline, which closes each measurement
// interval as time advances and hands it, classified, to a result hook.
// Memory is bounded by the accumulator's window (the latent-heat
// lookback, 12 five-minute slots) however long the link is monitored.
// The hook prints a status line per interval, flagging promotions and
// demotions (the reroute events a TE controller would act on), counts
// them and sums each step's timings, which the pipeline hands it with
// the interval; the closing digest reports both.
//
//	go run ./examples/livemonitor
//
// With -daemon the example is a client of a running elephantd instead:
// for every link, /history as a chart, the current elephant set, and the
// same intervals' trace lines:
//
//	elephantd -gen-routes 600 -gen-seed 7 -udp 127.0.0.1:2055 -http 127.0.0.1:8055 &
//	nfreplay -addr 127.0.0.1:2055 -routes 600 -seed 7 -intervals 20
//	go run ./examples/livemonitor -daemon http://127.0.0.1:8055
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scheme"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	daemon := flag.String("daemon", "", "base URL of a running elephantd (e.g. http://127.0.0.1:8055); empty runs the in-process demo")
	flag.Parse()
	run := runLocal
	if *daemon != "" {
		run = func() error { return monitorDaemon(*daemon) }
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// monitorDaemon renders one dashboard pass over a running elephantd,
// decoding the daemon's own response shapes.
func monitorDaemon(base string) error {
	var page serve.LinksPage
	if err := getJSON(base+"/links", func() any { return &page }); err != nil {
		return err
	}
	if len(page.Links) == 0 {
		fmt.Println("daemon knows no links yet — point an exporter (e.g. cmd/nfreplay) at its UDP port")
		return nil
	}
	for _, l := range page.Links {
		if l.Error != "" {
			fmt.Printf("link %s: FAILED: %s\n\n", l.ID, l.Error)
			continue
		}
		linkURL := base + "/links/" + url.PathEscape(l.ID)
		var hist serve.HistoryPage
		if err := getJSON(linkURL+"/history", func() any { return &hist }); err != nil {
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
		fmt.Printf("elephants %s  churn (promoted+demoted) %s\n", report.Sparkline(count), report.Sparkline(churn))
		var cur serve.Elephants
		if err := getJSON(linkURL+"/elephants", func() any { return &cur }); err != nil {
			return err
		}
		fmt.Printf("current elephants (interval %d, θ̂ = %.3f Mb/s): %d flows\n",
			cur.Interval, cur.ThresholdBps/1e6, len(cur.Flows))
		for _, f := range cur.Flows[:min(10, len(cur.Flows))] {
			fmt.Printf("  %s\n", f)
		}
		if more := len(cur.Flows) - 10; more > 0 {
			fmt.Printf("  … %d more\n", more)
		}
		// The same intervals' trace lines, one JSON value a line: stage
		// timings, seal-time watermark lag, classify/accumulate overlap.
		var traces []serve.IntervalTrace
		if err := getJSON(linkURL+"/debug/intervals", func() any {
			traces = append(traces, serve.IntervalTrace{})
			return &traces[len(traces)-1]
		}); err != nil {
			return err
		}
		stepUs := make([]float64, len(traces))
		lagS := make([]float64, len(traces))
		overlapUs := make([]float64, len(traces))
		for i, tr := range traces {
			stepUs[i] = float64(tr.StepNanos) / 1e3
			lagS[i] = float64(tr.WatermarkLagNanos) / 1e9
			overlapUs[i] = float64(tr.StageOverlapNanos) / 1e3
		}
		last := traces[len(traces)-1]
		fmt.Printf("interval traces (%d): step µs %s  watermark lag s %s  stage overlap µs %s\n",
			len(traces), report.Sparkline(stepUs), report.Sparkline(lagS), report.Sparkline(overlapUs))
		fmt.Printf("  last seal: step %.0f µs (detect %.0f, classify %.0f), lag %.1fs, churn +%d/-%d\n\n",
			float64(last.StepNanos)/1e3, float64(last.DetectNanos)/1e3,
			float64(last.ClassifyNanos)/1e3, float64(last.WatermarkLagNanos)/1e9,
			last.Promoted, last.Demoted)
	}
	for _, p := range page.Pipelines {
		fmt.Printf("link %s: %d waits on a full record queue\n", p.Link, p.Stalls)
	}
	return nil
}

// getJSON fetches url and decodes each JSON value of its body into the
// destination next returns for it: one value for the API's pages, one a
// line for its JSONL.
func getJSON(url string, next func() any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	for dec := json.NewDecoder(resp.Body); dec.More(); {
		if err := dec.Decode(next()); err != nil {
			return err
		}
	}
	return nil
}

func runLocal() error {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 4000, Seed: 11})
	if err != nil {
		return err
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
		return err
	}

	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	// Three hours of 5-minute slots, generated one interval at a time on
	// demand: the link's full bandwidth matrix never exists.
	feed := link.Stream(start, 5*time.Minute, 36)

	// Any other registered spec ("aest+latent", "spacesaving:k=100", ...)
	// changes nothing below.
	sp := scheme.MustParse("load+latent")
	// Every step's stage timings and the churn, summed by the hook.
	var steps, stepNs, detectNs, classifyNs int64
	var promotedN, demotedN int

	// The window is derived from the scheme, so ingestion holds no more
	// history than classification needs. The hook runs on the pipeline's
	// classify goroutine, one closed interval at a time, in order.
	var prev core.ElephantSet
	lp, err := engine.NewLivePipeline(engine.LiveLink{
		ID:       "live@0",
		Start:    start,
		Interval: 5 * time.Minute,
		Window:   engine.StreamWindow(sp, 0),
		Config:   sp.Factory(),
		OnResult: func(s engine.Sealed) error {
			res := s.Result
			promoted, demoted := missing(res.Elephants, prev), missing(prev, res.Elephants)
			fmt.Printf("[%s] flows=%4d elephants=%3d load=%5.1f Mb/s eleph=%.2f",
				s.At.Format("15:04"), res.ActiveFlows, res.ElephantCount(),
				res.TotalLoad/1e6, res.LoadFraction())
			if len(promoted) > 0 {
				fmt.Printf("  +%d promoted (e.g. %s)", len(promoted), promoted[0])
			}
			if len(demoted) > 0 {
				fmt.Printf("  -%d demoted (e.g. %s)", len(demoted), demoted[0])
			}
			fmt.Println()
			promotedN += len(promoted)
			demotedN += len(demoted)
			steps++
			stepNs += s.Step.StepNanos
			detectNs += s.Step.DetectNanos
			classifyNs += s.Step.ClassifyNanos
			prev = res.Elephants
			return nil
		},
	})
	if err != nil {
		return err
	}
	for err == nil {
		var rec agg.Record
		if rec, err = feed.Next(); err == nil {
			err = lp.Send(rec)
		}
	}
	// Close seals the intervals still open and waits for their hooks.
	if cerr := lp.Close(); errors.Is(err, io.EOF) {
		err = cerr
	}
	if err != nil {
		return err
	}

	// The digest: the sums the hook kept.
	n := float64(steps)
	fmt.Printf("\nstage timings over %.0f intervals: step mean %.0f µs (detect %.0f, classify %.0f); churn +%d/-%d\n",
		n, float64(stepNs)/n/1e3, float64(detectNs)/n/1e3, float64(classifyNs)/n/1e3, promotedN, demotedN)
	return nil
}

// missing lists the flows of a that b lacks, in string order.
func missing(a, b core.ElephantSet) (out []string) {
	for _, p := range a.Flows() {
		if !b.Contains(p) {
			out = append(out, p.String())
		}
	}
	sort.Strings(out)
	return out
}
