package repro

// End-to-end integration tests across every substrate: synthetic
// workload -> packet emission -> pcap -> decode -> longest-prefix match
// aggregation -> threshold detection -> classification -> analysis.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/scheme"
	"repro/internal/trace"
)

// TestFullPipelineFromPackets runs the complete wire-format path and
// cross-checks it against the fast path: classifying the decoded capture
// must single out (almost exactly) the same elephants as classifying the
// generator's own bandwidth matrix.
func TestFullPipelineFromPackets(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 1500, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	link, err := trace.NewLink(trace.LinkConfig{
		Name:        "integration",
		Profile:     trace.FlatProfile(),
		MeanLoadBps: 3e6,
		Flows:       400,
		Table:       table,
		Seed:        60,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	const intervals = 8
	fast := link.GenerateSeries(start, time.Minute, intervals)

	var buf bytes.Buffer
	em := trace.NewPacketEmitter(61)
	n, err := em.Emit(&buf, fast)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("capture: %d packets, %.1f MiB", n, float64(buf.Len())/(1<<20))

	wire := agg.NewSeries(start, time.Minute, intervals)
	src, err := agg.NewPacketRecordSource(&buf, table)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := agg.Collect(src, wire)
	if err != nil {
		t.Fatal(err)
	}
	if frames := src.ParserStats().Frames; frames != uint64(n) || src.Stats.Unrouted != 0 || stats.OutOfRange != 0 {
		t.Fatalf("frames=%d/%d stats=%+v, %+v", frames, n, src.Stats, stats)
	}

	fastRes := classifySeries(t, fast, "load+latent:window=4")
	wireRes := classifySeries(t, wire, "load+latent:window=4")

	for i := range fastRes {
		a, b := fastRes[i].Elephants, wireRes[i].Elephants
		// Jaccard similarity of the two elephant sets: packetization
		// rounds each flow's bytes, so borderline flows may differ, but
		// the sets must agree almost everywhere.
		if a.Len() == 0 && b.Len() == 0 {
			continue
		}
		if j := a.Jaccard(b); j < 0.9 {
			t.Errorf("interval %d: elephant sets diverge (jaccard %.2f, %d vs %d flows)", i, j, a.Len(), b.Len())
		}
	}
}

// classifySeries runs one scheme over one series through the experiments
// harness's engine call.
func classifySeries(t *testing.T, s *agg.Series, spec string) []core.Result {
	t.Helper()
	runs, err := experiments.Classify([]engine.MatrixLink{{ID: "link", Series: s}}, []*scheme.Spec{scheme.MustParse(spec)})
	if err != nil {
		t.Fatal(err)
	}
	return runs[0].Results
}

// TestReproducibilityAcrossRuns: the whole experiment stack is seeded;
// two complete runs must agree bit for bit.
func TestReproducibilityAcrossRuns(t *testing.T) {
	run := func() []int {
		ls, err := experiments.BuildLinks(experiments.SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		return analysis.CountSeries(classifySeries(t, ls.West, "aest+latent"))
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d: %d vs %d elephants across identical runs", i, a[i], b[i])
		}
	}
}

// TestSeedSensitivity: different seeds must produce different workloads
// (guards against a silently ignored seed).
func TestSeedSensitivity(t *testing.T) {
	cfg := experiments.SmallConfig()
	a, err := experiments.BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = cfg.Seed + 1
	b, err := experiments.BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for tt := 0; tt < a.West.Intervals; tt++ {
		if a.West.TotalBandwidth(tt) == b.West.TotalBandwidth(tt) {
			same++
		}
	}
	if same == a.West.Intervals {
		t.Error("different seeds produced identical load series")
	}
}

// TestElephantsAreActuallyHeavy: sanity link between classification and
// ground truth — flows classified as elephants in an interval must have
// above-median bandwidth in that interval.
func TestElephantsAreActuallyHeavy(t *testing.T) {
	ls, err := experiments.BuildLinks(experiments.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := classifySeries(t, ls.West, "load+single")
	var snap *core.FlowSnapshot
	for tt := 24; tt < len(res); tt += 24 {
		snap = ls.West.Snapshot(tt, snap)
		mean := snap.TotalLoad() / float64(snap.Len())
		for _, p := range res[tt].Elephants.Flows() {
			i, ok := snap.Lookup(p)
			if !ok {
				continue // latent-heat carryover: idle this interval
			}
			if bw := snap.Bandwidth(i); bw < mean {
				t.Errorf("interval %d: elephant %v has below-mean bandwidth %.0f < %.0f", tt, p, bw, mean)
			}
		}
	}
}
