package serve

import (
	"net/http"
	"strconv"

	"repro/internal/report"
)

// b2f renders a boolean as a 0/1 gauge sample.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// handleMetrics renders the daemon's counters in the Prometheus text
// exposition format via report.MetricsWriter. Every per-link family
// lists its links in ID order, so consecutive scrapes of a quiet daemon
// are byte-identical.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	m := report.NewMetricsWriter(w)
	// Every link read once, under its lock once; elephantd_links counts
	// the same walk's rows.
	rows := d.store.readings()
	datagrams, records, decodeErrors := d.ingestTotals()
	m.Family("elephantd_datagrams_total", "UDP datagrams received.", "counter")
	m.Sample("elephantd_datagrams_total", nil, float64(datagrams))
	m.Family("elephantd_records_total", "NetFlow records carried by well-formed datagrams.", "counter")
	m.Sample("elephantd_records_total", nil, float64(records))
	m.Family("elephantd_decode_errors_total", "Datagrams rejected by the NetFlow v5 decoder.", "counter")
	m.Sample("elephantd_decode_errors_total", nil, float64(decodeErrors))
	m.Family("elephantd_links", "Links currently known to the state store.", "gauge")
	m.Sample("elephantd_links", nil, float64(len(rows)))
	m.Family("elephantd_readers", "Ingest reader goroutines.", "gauge")
	m.Sample("elephantd_readers", nil, float64(len(d.readers)))
	m.Family("elephantd_reuseport", "1 when each reader owns a SO_REUSEPORT socket, 0 with one reader on one socket.", "gauge")
	m.Sample("elephantd_reuseport", nil, b2f(d.ReusePort()))

	// Per-reader ingest counters: where the front-end's load lands.
	readerRows := d.readerStatus()
	readerCounter := func(name, help string, v func(ReaderStatus) float64) {
		m.Family(name, help, "counter")
		for _, row := range readerRows {
			m.Sample(name, []report.Label{{Name: "reader", Value: strconv.Itoa(row.Reader)}}, v(row))
		}
	}
	readerCounter("elephantd_reader_datagrams_total", "UDP datagrams received by the reader.",
		func(s ReaderStatus) float64 { return float64(s.Datagrams) })
	readerCounter("elephantd_reader_records_total", "NetFlow records decoded by the reader.",
		func(s ReaderStatus) float64 { return float64(s.Records) })
	readerCounter("elephantd_reader_decode_errors_total", "Datagrams the reader's decoder rejected.",
		func(s ReaderStatus) float64 { return float64(s.DecodeErrors) })
	m.Family("elephantd_reader_receive_buffer_bytes", "Effective kernel receive buffer of the reader's socket (post-clamp SO_RCVBUF readback).", "gauge")
	for _, row := range readerRows {
		m.Sample("elephantd_reader_receive_buffer_bytes",
			[]report.Label{{Name: "reader", Value: strconv.Itoa(row.Reader)}}, float64(row.ReceiveBufferBytes))
	}

	// Per-link families, each contiguous over all links, as the
	// exposition format requires.
	perLink := func(name, help, typ string, v func(*linkReading) float64) {
		m.Family(name, help, typ)
		for i := range rows {
			m.Sample(name, []report.Label{{Name: "link", Value: rows[i].ID}}, v(&rows[i]))
		}
	}
	counter := func(name, help string, v func(*linkReading) float64) { perLink(name, help, "counter", v) }
	gauge := func(name, help string, v func(*linkReading) float64) { perLink(name, help, "gauge", v) }
	// last reads a field of the newest closed interval, 0 before it.
	last := func(v func(*IntervalSummary) float64) func(*linkReading) float64 {
		return func(r *linkReading) float64 {
			if r.Last == nil {
				return 0
			}
			return v(r.Last)
		}
	}
	stage := func(name, help string, h func(*linkMetrics) *histogram) {
		m.Family(name, help, "histogram")
		for i := range rows {
			hi := h(&rows[i].metrics)
			m.Histogram(name, []report.Label{{Name: "link", Value: rows[i].ID}}, stageBounds[:], hi.counts[:], hi.sum)
		}
	}

	counter("elephantd_link_datagrams_total", "Datagrams demultiplexed to the link.",
		func(r *linkReading) float64 { return float64(r.Ingest.Datagrams) })
	counter("elephantd_link_records_total", "Flow records demultiplexed to the link.",
		func(r *linkReading) float64 { return float64(r.Ingest.Records) })
	counter("elephantd_link_routed_total", "Records attributed to a BGP prefix and classified.",
		func(r *linkReading) float64 { return float64(r.Ingest.Routed) })
	counter("elephantd_link_unrouted_total", "Records with no matching route, skipped.",
		func(r *linkReading) float64 { return float64(r.Ingest.Unrouted) })
	counter("elephantd_link_dropped_total", "Routed records discarded because the link's pipeline failed.",
		func(r *linkReading) float64 { return float64(r.Ingest.Dropped) })
	counter("elephantd_link_late_records_total", "Records whose bits fell entirely behind the closed interval edge.",
		func(r *linkReading) float64 { return float64(r.Stream.Late) })
	counter("elephantd_link_far_future_total", "Records dropped for advancing the window implausibly far.",
		func(r *linkReading) float64 { return float64(r.Stream.FarFuture) })
	counter("elephantd_link_intervals_closed_total", "Measurement intervals closed and classified.",
		func(r *linkReading) float64 { return float64(r.Stream.Closed) })
	counter("elephantd_link_evicted_flows_total", "Flow cells evicted with their closing interval's column.",
		func(r *linkReading) float64 { return float64(r.Stream.EvictedFlows) })

	gauge("elephantd_link_failed", "1 when the link's pipeline has failed, else 0.",
		func(r *linkReading) float64 { return b2f(r.Error != "") })
	gauge("elephantd_link_elephants", "Elephant count of the last closed interval.",
		last(func(s *IntervalSummary) float64 { return float64(s.Elephants) }))
	gauge("elephantd_link_active_flows", "Active flow count of the last closed interval.",
		last(func(s *IntervalSummary) float64 { return float64(s.ActiveFlows) }))
	gauge("elephantd_link_load_bps", "Total load of the last closed interval (bit/s).",
		last(func(s *IntervalSummary) float64 { return s.TotalLoadBps }))
	gauge("elephantd_link_elephant_load_fraction", "Fraction of load carried by elephants in the last closed interval.",
		last(func(s *IntervalSummary) float64 { return s.LoadFraction }))
	gauge("elephantd_link_threshold_bps", "Smoothed elephant threshold of the last closed interval (bit/s).",
		last(func(s *IntervalSummary) float64 { return s.ThresholdBps }))

	// What LinkState.record folded, the newest ring entry's raw
	// threshold, and the pipeline's own lag and stall readings.
	stage("elephantd_step_duration_seconds", "Whole pipeline step wall time per interval.",
		func(m *linkMetrics) *histogram { return &m.step })
	stage("elephantd_detect_duration_seconds", "Threshold-detection stage wall time per interval.",
		func(m *linkMetrics) *histogram { return &m.detect })
	stage("elephantd_classify_duration_seconds", "Classification stage wall time per interval.",
		func(m *linkMetrics) *histogram { return &m.classify })
	counter("elephantd_link_promoted_total", "Flows promoted into the elephant set.",
		func(r *linkReading) float64 { return float64(r.metrics.promoted) })
	counter("elephantd_link_demoted_total", "Flows demoted out of the elephant set.",
		func(r *linkReading) float64 { return float64(r.metrics.demoted) })
	gauge("elephantd_link_raw_threshold_bps", "Last interval's detected raw threshold theta(t) (bit/s).",
		func(r *linkReading) float64 { return r.raw })
	gauge("elephantd_link_watermark_lag_seconds", "Interval watermark lag: newest record export time minus newest sealed interval edge.",
		func(r *linkReading) float64 { return r.lag.Seconds() })
	counter("elephantd_link_stalls_total", "Blocking waits for a free batch: sends that found every batch of the link's record queue in use.",
		func(r *linkReading) float64 { return float64(r.stalls) })
	stage("elephantd_stage_overlap_seconds", "Classify-stage wall time overlapped with the accumulate stage, per interval.",
		func(m *linkMetrics) *histogram { return &m.overlap })

	if err := m.Err(); err != nil {
		d.cfg.Logf("serve: rendering metrics: %v", err)
	}
}
