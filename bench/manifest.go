package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root states the same lists
// for the driver; TestManifestMatchesBenchmarkJSON keeps the two equal.

// runSeconds is BENCHMARK.json's run_seconds: the timed section the
// driver asks for, as long as its budget for all runs allows. It
// averages out the second-to-second bursts of a shared host; the slower
// drift (a neighbour busy for minutes moves every rate by 10-15 %) no
// run length the budget allows would, which is why the bounds below are
// as wide as the contract permits.
const runSeconds = 20

type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*outcome, error)
}

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

var workloads = []workload{
	{"batch_matrix", "figure-reproduction path: paper-scale west+east series x 4 schemes through RunMatrix; core/stats/sealed-Series/prepass do all the work, netflow/bgp/StreamAccumulator/serve none", runBatchMatrix},
	{"stream_replay", "single-threaded baseline of the live job: one 8192-flow link decoded, attributed and classified by RunStreaming on one goroutine; bgp and agg dominate, serve and LivePipeline are bypassed", runStreamReplay},
	{"live_heavy_link", "the same wire set over loopback UDP into the in-process daemon as one link: adds socket read, dispatch, the record queue and the accumulate/classify hand-off to exactly stream_replay's work", runLiveHeavyLink},
	{"live_many_links", "64 exporters x 128 flows interleaved while /metrics and /elephants are read: 64x more seals of tiny intervals, per-link state and metric families, reads beside writes on Store and Registry", runLiveManyLinks},
}

// endToEnd is what --trace 0 prints, on every workload. A "record" is a
// NetFlow record on the stream and live workloads and one flow-interval
// bandwidth sample stepped through one scheme on batch_matrix.
var endToEnd = []metricDef{
	{"records_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what --trace 1 prints, on every workload; a layer that
// does no work on a workload reads 0 there.
var perLayer = []metricDef{
	{"netflow.decode_ns_per_record", "ns", "lower", 0},
	{"bgp.attribute_ns_per_record", "ns", "lower", 0},
	{"bgp.unrouted_records", "count", "lower", 0},
	{"agg.accumulate_ns_per_record", "ns", "lower", 0},
	{"agg.intervals_sealed", "count", "higher", 0},
	{"agg.flows_per_interval", "count", "higher", 0},
	{"agg.late_records", "count", "lower", 0},
	{"agg.emit_us_per_interval", "us", "lower", 0},
	{"core.step_us_per_interval", "us", "lower", 0},
	{"core.detect_us_per_interval", "us", "lower", 0},
	{"core.classify_us_per_interval", "us", "lower", 0},
	{"core.finalize_us_per_interval", "us", "lower", 0},
	{"core.elephants_per_interval", "count", "higher", 0},
	{"engine.matrix_speedup_vs_staged", "ratio", "higher", 0},
	{"engine.queue_stalls_per_mrecord", "count", "lower", 0},
	{"engine.stage_overlap_ratio", "ratio", "higher", 0},
	{"engine.publish_lag_ms_p50", "ms", "lower", 0},
	{"engine.publish_lag_ms_p90", "ms", "lower", 0},
	{"serve.live_over_stream_ratio", "ratio", "higher", 0},
	{"serve.publish_us_per_interval", "us", "lower", 0},
	{"serve.live_step_us_per_interval", "us", "lower", 0},
	{"serve.scrape_ms_p50", "ms", "lower", 0},
	{"serve.scrape_ms_p90", "ms", "lower", 0},
	{"serve.scrape_bytes", "B", "lower", 0},
	{"serve.query_ms_p50", "ms", "lower", 0},
	{"proc.cpu_us_per_record", "us", "lower", 0},
	{"proc.alloc_bytes_per_record", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.heap_inuse_mb_max", "MiB", "lower", 0},
	{"proc.goroutines_max", "count", "lower", 0},
	{"gen.send_us_per_datagram", "us", "lower", 0},
	{"gen.blocked_ratio", "ratio", "higher", 0},
	{"gen.starved_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.self_time_coverage", "ratio", "higher", 0},
	{"bench.rep_ms_p50", "ms", "lower", 0},
	{"bench.timed_reps", "count", "higher", 0},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
