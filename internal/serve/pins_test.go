package serve

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/netflow"
	"repro/internal/scheme"
)

// newPinDaemon starts a daemon at Config's zero values apart from what
// NewDaemon requires — the configuration the per-link pins are stated
// for. No Logf: a logged "new link" line would be the test's allocation,
// not the link's.
func newPinDaemon(t *testing.T) *Daemon {
	t.Helper()
	table, err := bgp.Generate(bgp.GenConfig{Routes: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   scheme.MustParse("load+latent"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return d
}

// stepRecorder keeps a step's observation for the hook that follows,
// as a LivePipeline's own observer does.
type stepRecorder struct{ last core.StepObservation }

func (r *stepRecorder) ObserveStep(o core.StepObservation) { r.last = o }

// TestInstrumentedStepSteadyStateAllocs pins the resident daemon's
// per-interval hot path at zero amortized allocations: an observed step,
// then the link's own result hook handed the interval whole — the one
// record call, which also folds the stage histograms. The link is built
// by the daemon (Daemon.link) and stays idle; a pipeline configured as
// the link's is (the scheme's factory, an observer) is stepped on this
// goroutine and each interval handed to the link's hook as the
// engine.Sealed its pipeline would build — result, step observation and
// seal lag — so what is measured is the daemon's wiring, not a copy of
// it. Same protocol as the root TestPipelineStepSteadyStateAllocs:
// AllocsPerRun truncates the average, so the arena growing a chunk every
// several intervals passes and a genuine per-interval allocation fails.
func TestInstrumentedStepSteadyStateAllocs(t *testing.T) {
	cfg := experiments.SmallConfig()
	cfg.Intervals = 48
	cfg.Flows = 1200
	cfg.Routes = 3000
	links, err := experiments.BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := newPinDaemon(t)
	ls := d.link(newReader(0, nil, 0), linkKey{addr: netip.MustParseAddr("192.0.2.1")})
	if ls.lp == nil {
		t.Fatalf("link has no pipeline: %s", ls.Summary().Error)
	}
	cc, err := d.cfg.Scheme.Factory()()
	if err != nil {
		t.Fatal(err)
	}
	var obs stepRecorder
	cc.Observer = &obs
	pipe, err := core.NewPipeline(cc)
	if err != nil {
		t.Fatal(err)
	}
	snap := core.NewFlowSnapshot(0)
	n := links.West.Intervals
	lag := func(i int) time.Duration { return time.Duration(i+1) * time.Millisecond }
	step := func(i int) {
		snap = links.West.Snapshot(i%n, snap)
		res, err := pipe.Step(snap)
		if err != nil {
			t.Fatal(err)
		}
		s := engine.Sealed{T: res.Interval, At: links.West.Start, Result: res, Stats: agg.StreamStats{Closed: i + 1}, Step: obs.last, SealLag: lag(i)}
		if err := ls.sealed(s); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: two full passes grow the flow table, the classifier columns,
	// the sorted-column buffer and the first arena chunks to capacity.
	for i := 0; i < 2*n; i++ {
		step(i)
	}
	i := 2 * n
	avg := testing.AllocsPerRun(3*n, func() { step(i); i++ })
	if avg != 0 {
		t.Errorf("instrumented step + result hook averages %v allocs/interval, want 0", avg)
	}
	// The hook did its work: every interval is in the ring with the
	// timings and seal lag of its own Sealed, and the counters moved
	// with it.
	traces := ls.traces()
	if last := traces[len(traces)-1]; len(traces) != min(i, d.cfg.History) || last.Interval != i-1 || last.StepNanos <= 0 || last.WatermarkLagNanos != int64(lag(i-1)) {
		t.Errorf("ring holds %d traces ending %+v after %d intervals", len(traces), last, i)
	}
	if got := ls.metrics.step.count(); got != uint64(i) {
		t.Errorf("step histogram counted %d intervals, want %d", got, i)
	}
}

// TestIdleLinkFootprint pins what a link costs before its first record:
// heap bytes and heap objects per link, over 512 links made by
// Daemon.link through one reader at the default Config (History 288,
// the default queue, elephantd's default scheme), the reader's map
// entry included. The figure repeats to within a few dozen bytes (later
// runs in one process read less), so the bounds sit just above it: at
// most 8 131 B (-race included) and 39 mallocs a link on 2 vCPU, go1.24,
// once the store became one map and each reader kept its own (8 179 B
// and 45 while the store copied its index per creation; 73 882 B and 46
// while every link held its 288 history entries from creation), plus 1 %
// and one malloc.
func TestIdleLinkFootprint(t *testing.T) {
	const (
		links     = 512
		maxBytes  = 8_131 * 101 / 100
		maxAllocs = 39 + 1
	)
	d := newPinDaemon(t)
	r := newReader(0, nil, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < links; i++ {
		if ls := d.link(r, linkKey{addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})}); ls.lp == nil {
			t.Fatalf("link %s has no pipeline", ls.id)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := (after.HeapAlloc - before.HeapAlloc) / links
	allocs := (after.Mallocs - before.Mallocs) / links
	t.Logf("idle link: %d B, %d mallocs", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("an idle link holds %d B in %d mallocs, want at most %d B and %d", bytes, allocs, maxBytes, maxAllocs)
	}
	runtime.KeepAlive(d)
}

// TestDispatchToKnownLinksAllocatesNothing pins a datagram from an
// exporter its reader has already seen at zero allocations: DecodeInto
// into the reader's scratch, the link lookup in the reader's own map, the
// BGP attribution and SendBatch into the link's pipeline — the path
// BenchmarkIngestDispatch times. Its records all land in one interval,
// so nothing seals and the pipeline's worker only accumulates. Same
// protocol as TestInstrumentedStepSteadyStateAllocs: warm up, then
// AllocsPerRun, which truncates the average. AllocsPerRun runs at
// GOMAXPROCS 1, where the reader outruns the link's worker until the
// queue has all its slabs (DefaultLiveBuffer/32 = 128, each allocated
// once and kept); over 1 024 datagrams those truncate away, and an
// allocation per datagram does not.
func TestDispatchToKnownLinksAllocatesNothing(t *testing.T) {
	const warm, runs = 8, 1024
	d := newPinDaemon(t)
	wire := benchWire(t, d.cfg.Table, time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC))
	ap := netip.MustParseAddrPort("192.0.2.9:2055")
	r := newReader(0, nil, 0)
	dispatch := func() {
		if err := netflow.DecodeInto(wire, &r.dg); err != nil {
			t.Fatal(err)
		}
		d.dispatch(r, ap, &r.dg)
	}
	// Warm: the first datagram creates the link; the rest grow the
	// decode scratch and the accumulator's flow columns.
	for i := 0; i < warm; i++ {
		dispatch()
	}
	if avg := testing.AllocsPerRun(runs, dispatch); avg != 0 {
		t.Errorf("dispatch of a seen exporter's datagram averages %v allocs, want 0", avg)
	}
	// AllocsPerRun calls dispatch once more before it counts.
	if in := d.store.Get("192.0.2.9@0").Summary().Ingest; in.Datagrams != warm+1+runs || in.Routed != in.Records {
		t.Errorf("link ingest = %+v after %d datagrams, want every record routed", in, warm+1+runs)
	}
}

// TestLinkCreationCostIsFlat pins that adding a link costs the same at
// any link count: the bytes allocated per Store.GetOrCreate, averaged
// over 256 creations, at 32 768 links are within 2× of the same figure
// at 1 024 links. A store that copies an index per creation fails it
// (336 672 B per link at 32 768 against 14 336 B at 1 024, go1.24).
func TestLinkCreationCostIsFlat(t *testing.T) {
	const (
		small, large = 1 << 10, 1 << 15
		batch        = 256
	)
	ids := make([]string, large+batch)
	for i := range ids {
		ids[i] = fmt.Sprintf("10.%d.%d.%d@0", i>>16, i>>8&0xff, i&0xff)
	}
	s := NewStore()
	create := func(ids []string) {
		for _, id := range ids {
			s.GetOrCreate(id, 1)
		}
	}
	perLink := func(at int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		create(ids[at : at+batch])
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / batch
	}
	create(ids[:small])
	atSmall := perLink(small)
	create(ids[small+batch : large])
	atLarge := perLink(large)
	t.Logf("bytes per created link: %d at %d links, %d at %d", atSmall, small, atLarge, large)
	if atLarge > 2*atSmall {
		t.Errorf("a link created at %d links allocates %d B, more than twice the %d B at %d links", large, atLarge, atSmall, small)
	}
}
