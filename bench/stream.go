package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netflow"
	"repro/internal/serve"
)

const (
	// Repetition policy of the record workloads: two untimed warm-up
	// repetitions, at least five timed ones, and a cap that bounds the
	// daemon's history ring (sized to hold the whole run).
	recordWarmReps = 2
	recordMinReps  = 5
	recordMaxReps  = 128

	// referenceReps is how many leading repetitions the batch reference
	// reproduces; liveReferenceReps how many the stream reference of
	// live_heavy_link does.
	referenceReps     = 2
	liveReferenceReps = 4
)

func recordClock(budget time.Duration) *repClock {
	return &repClock{warm: recordWarmReps, min: recordMinReps, max: recordMaxReps, budget: budget}
}

// repRates turns a clock's timed repetitions into records/s samples.
func repRates(c *repClock, recordsPerRep int) []float64 {
	var out []float64
	for _, d := range c.timed() {
		out = append(out, float64(recordsPerRep)/d.Seconds())
	}
	return out
}

// rateMedian returns the median of the per-repetition rates, stating
// the sample count and spread on standard error beside it.
func rateMedian(rates []float64) float64 {
	fmt.Fprintf(os.Stderr, "bench: %d timed repetitions, records/s min %.0f p25 %.0f median %.0f p75 %.0f max %.0f\n",
		len(rates), percentile(rates, 0), percentile(rates, 25), median(rates), percentile(rates, 75), percentile(rates, 100))
	return median(rates)
}

// streamRun is stream_replay's measured section: the wire set decoded
// and attributed by a wireSource and classified by RunStreaming on one
// goroutine.
func streamRun(in *recordInputs, clock *repClock) ([]core.Result, *wireSource, error) {
	src := newWireSource(in.table, in.wire, clock)
	eng := engine.MultiLinkEngine{Workers: 1}
	lrs, err := eng.RunStreaming([]engine.StreamLink{{
		ID:       linkName(0),
		Source:   src,
		Start:    traceStart,
		Interval: benchInterval,
		Window:   engine.StreamWindow(in.spec, 0),
		Config:   in.spec.Factory(),
	}})
	if err != nil {
		return nil, nil, err
	}
	if lrs[0].Err != nil {
		return nil, nil, lrs[0].Err
	}
	return lrs[0].Results, src, nil
}

// stagedLink is one link of the staged record path: the accumulator and
// pipeline the harness drives by hand, and a scratch store entry it
// publishes into the way the daemon's result hook does.
type stagedLink struct {
	acc     *agg.StreamAccumulator
	pipe    *core.Pipeline
	last    lastObservation
	state   *serve.LinkState
	results []core.Result
}

// stagedRun is the staged record path's outcome.
type stagedRun struct {
	links                           []*stagedLink
	records, unrouted, decodeErrors uint64
	late                            uint64 // late + far-future, all links
}

// runStaged pushes the wire set through the record path one public call
// at a time on this goroutine — DecodeInto, Attribute, Add (whose Emit
// hook steps the pipeline and publishes) — with a span around each. It
// does the work of RunStreaming (and, per link, of the daemon) without
// the engine, the socket or the queues, which is what lets a layer's
// cost be read from outside the program.
func runStaged(in *recordInputs, clock *repClock, tr *tracer) (*stagedRun, error) {
	sr := &stagedRun{links: make([]*stagedLink, in.wire.links)}
	store := serve.NewStore()
	for l := range sr.links {
		sl := &stagedLink{state: store.GetOrCreate(linkName(l), 2*intervalsPerRep)}
		cc, err := in.spec.Config()
		if err != nil {
			return nil, err
		}
		cc.Observer = &sl.last
		if sl.pipe, err = core.NewPipeline(cc); err != nil {
			return nil, err
		}
		sl.acc, err = agg.NewStreamAccumulator(agg.StreamConfig{
			Start:    traceStart,
			Interval: benchInterval,
			Window:   engine.StreamWindow(in.spec, 0),
			Table:    sl.pipe.Table(),
		})
		if err != nil {
			return nil, err
		}
		sl.acc.Emit = func(t int, snap *core.FlowSnapshot) error {
			t0 := tr.now()
			res, err := sl.pipe.StepSnapshot(t, snap)
			if err != nil {
				return err
			}
			t1 := tr.now()
			sl.state.RecordResult(t, sl.acc.IntervalTime(t), res, sl.acc.Stats())
			t2 := tr.now()
			sl.results = append(sl.results, res)
			if tr != nil {
				addStepSpans(tr, lStep, lDetect, lClassify, lFinalize, t, t0, t1, sl.last.o)
				tr.add(lPublish, t, t1, t2)
				tr.add(lEmit, t, t0, time.Now())
			}
			return nil
		}
		sr.links[l] = sl
	}
	var dg netflow.Datagram
	batch := make([]agg.Record, 0, netflow.MaxRecordsPerDatagram)
	gi := 0
	for rep := 0; clock.next(); rep++ {
		for i := 0; i < in.wire.datagrams(); i++ {
			raw := in.wire.datagram(i, rep)
			sl := sr.links[in.wire.link[i]]
			gi = rep*intervalsPerRep + int(in.wire.interval[i])
			t0 := tr.now()
			if err := netflow.DecodeInto(raw, &dg); err != nil {
				sr.decodeErrors++
				continue
			}
			t1 := tr.now()
			batch = batch[:0]
			for k := range dg.Records {
				rec, ok := netflow.Attribute(in.table, dg.Header, dg.Records[k])
				if !ok {
					sr.unrouted++
					continue
				}
				batch = append(batch, rec)
			}
			t2 := tr.now()
			for _, rec := range batch {
				if err := sl.acc.Add(rec); err != nil {
					return nil, err
				}
			}
			t3 := tr.now()
			sr.records += uint64(len(dg.Records))
			tr.add(lDecode, gi, t0, t1)
			tr.add(lAttribute, gi, t1, t2)
			tr.add(lAdd, gi, t2, t3)
		}
	}
	for _, sl := range sr.links {
		t0 := tr.now()
		if err := sl.acc.Flush(); err != nil {
			return nil, err
		}
		tr.add(lAdd, gi, t0, tr.now())
		st := sl.acc.Stats()
		sr.late += st.Late + st.FarFuture
	}
	return sr, nil
}

// stagedLayerMetrics fills the record-path per-layer metrics from a
// staged run's spans, over the timed intervals [lo, hi) only.
func stagedLayerMetrics(m map[string]float64, sr *stagedRun, spans []span, lo, hi, recordsPerRep int) (selfSum time.Duration) {
	busy := busyByLayer(spans, lo, hi)
	self := selfTimes(recordLayers, busy)
	records := float64(hi-lo) / intervalsPerRep * float64(recordsPerRep)
	var steps, flows, elephants float64
	for _, sl := range sr.links {
		for i := range sl.results {
			if t := sl.results[i].Interval; t >= lo && t < hi {
				steps++
				flows += float64(sl.results[i].ActiveFlows)
				elephants += float64(sl.results[i].ElephantCount())
			}
		}
	}
	m["netflow.decode_ns_per_record"] = float64(self["netflow.decode"]) / records
	m["bgp.attribute_ns_per_record"] = float64(self["bgp.attribute"]) / records
	m["bgp.unrouted_records"] = float64(sr.unrouted)
	m["agg.accumulate_ns_per_record"] = float64(self["agg.add"]) / records
	m["agg.intervals_sealed"] = steps
	m["agg.flows_per_interval"] = flows / steps
	m["agg.late_records"] = float64(sr.late)
	m["core.step_us_per_interval"] = float64(busy["core.step"]) / 1e3 / steps
	m["core.detect_us_per_interval"] = float64(busy["core.detect"]) / 1e3 / steps
	m["core.classify_us_per_interval"] = float64(busy["core.classify"]) / 1e3 / steps
	m["core.finalize_us_per_interval"] = float64(busy["core.finalize"]) / 1e3 / steps
	m["core.elephants_per_interval"] = elephants / steps
	m["serve.publish_us_per_interval"] = float64(busy["serve.publish"]) / 1e3 / steps
	return time.Duration(self["netflow.decode"] + self["bgp.attribute"] + self["agg.add"] + self["agg.emit"] + busy["core.step"])
}

// checkStaged applies the conservation laws to a staged run of reps
// repetitions.
func checkStaged(out *outcome, in *recordInputs, sr *stagedRun, reps int) {
	out.attempted += sr.records
	lost := absInt(int(sr.records)-reps*in.wire.records) + int(sr.decodeErrors+sr.unrouted+sr.late)
	out.fail(lost, "staged run: %d records of %d, %d undecodable datagrams, %d unrouted, %d late or far-future",
		sr.records, reps*in.wire.records, sr.decodeErrors, sr.unrouted, sr.late)
}

// checkAgainstBatch compares each link's leading referenceReps
// repetitions with the batch engine run on a Series collected from the
// same records.
func checkAgainstBatch(out *outcome, in *recordInputs, what string, got func(l int) []intervalDigest) error {
	ref, notLanded, err := batchReference(in.table, in.wire, in.spec, referenceReps)
	if err != nil {
		return err
	}
	out.fail(notLanded, "%d records of the batch reference did not land", notLanded)
	for l := 0; l < in.wire.links; l++ {
		want := digestResults(ref[linkName(l)])
		out.fail(digestMismatches(got(l), want), "%s link %s differs from the batch reference", what, linkName(l))
	}
	return nil
}

func runStreamReplay(cfg runConfig) (*outcome, error) {
	in, setupS, err := timedSetup(func() (*recordInputs, error) { return buildRecordInputs(heavyShape, cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	m := out.metrics

	budget := cfg.seconds
	if cfg.traced {
		budget = cfg.seconds * 4 / 10
	}
	clock := recordClock(budget)
	before := readProc()
	watch := startProcWatcher()
	results, src, err := streamRun(in, clock)
	watch.done()
	after := readProc()
	if err != nil {
		return nil, err
	}
	reps := len(clock.ends)
	rates := repRates(clock, in.wire.records)
	m["records_per_s"] = rateMedian(rates)
	m["bench.rep_ms_p50"] = float64(in.wire.records) / median(rates) * 1e3
	m["bench.timed_reps"] = float64(len(rates))

	// Conservation over the whole run, then the leading repetitions
	// against the batch engine.
	expect := reps * intervalsPerRep
	out.attempted = src.records + uint64(expect)
	out.fail(int(src.decodeErrors), "%d datagrams failed to decode", src.decodeErrors)
	out.fail(int(src.unrouted), "%d records unrouted", src.unrouted)
	out.fail(absInt(int(src.records)-reps*in.wire.records), "source yielded %d records, want %d", src.records, reps*in.wire.records)
	out.fail(absInt(len(results)-expect), "%d intervals classified, want %d", len(results), expect)
	got := digestResults(results)
	if err := checkAgainstBatch(out, in, "stream_replay", func(int) []intervalDigest { return got }); err != nil {
		return nil, err
	}
	if !cfg.traced {
		return out, nil
	}

	// Traced run: the same work, staged and spanned.
	tr := newTracer(recordLayers)
	tclock := recordClock(cfg.seconds * 6 / 10)
	sr, err := runStaged(in, tclock, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.recorded()
	lo, hi := recordWarmReps*intervalsPerRep, len(tclock.ends)*intervalsPerRep
	selfSum := stagedLayerMetrics(m, sr, spans, lo, hi, in.wire.records)
	tracedRates := repRates(tclock, in.wire.records)
	// The staged run must classify exactly as RunStreaming did.
	n := min(len(results), len(sr.links[0].results))
	out.fail(resultMismatches(sr.links[0].results[:n], results[:n]), "staged run differs from RunStreaming")
	checkStaged(out, in, sr, len(tclock.ends))
	timedReps := float64(hi-lo) / intervalsPerRep
	untracedWall := timedReps * float64(in.wire.records) / median(rates)
	m["trace.overhead_ratio"] = median(rates) / median(tracedRates)
	m["trace.self_time_coverage"] = selfSum.Seconds() / untracedWall
	procMetrics(m, before, after, watch, float64(src.records))
	if c := m["trace.self_time_coverage"]; math.Abs(c-1) > 0.10 {
		fmt.Fprintf(os.Stderr, "bench: warning: layer self-times cover %.2f of the untraced wall time (want within 10%%)\n", c)
	}
	return out, writeTrace(cfg.traceOut, "stream_replay", spans)
}
