package serve

import (
	"context"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/experiments"
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

// TestInstrumentedStepSteadyStateAllocs pins the resident daemon's
// per-interval hot path at zero amortized allocations: a step observed
// by the link, then the link's own result hook — the one record call,
// which also folds the stage histograms. The link is built by
// createLink and stays idle; a pipeline configured as createLink
// configures the link's (the scheme's factory, the link's observer) is
// stepped on this goroutine and each Result handed to ll.onResult, so
// what is measured is the daemon's wiring, not a copy of it. Same
// protocol as the root TestPipelineStepSteadyStateAllocs: AllocsPerRun
// truncates the average, so the arena growing a chunk every several
// intervals passes and a genuine per-interval allocation fails.
func TestInstrumentedStepSteadyStateAllocs(t *testing.T) {
	cfg := experiments.SmallConfig()
	cfg.Intervals = 48
	cfg.Flows = 1200
	cfg.Routes = 3000
	ls, err := experiments.BuildLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := newPinDaemon(t)
	ll, err := d.createLink(linkKey{addr: netip.MustParseAddr("192.0.2.1")})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := d.cfg.Scheme.Factory()()
	if err != nil {
		t.Fatal(err)
	}
	cc.Observer = ll
	pipe, err := core.NewPipeline(cc)
	if err != nil {
		t.Fatal(err)
	}
	snap := core.NewFlowSnapshot(0)
	n := ls.West.Intervals
	step := func(i int) {
		snap = ls.West.Snapshot(i%n, snap)
		res, err := pipe.Step(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := ll.onResult(res.Interval, ls.West.Start, res, agg.StreamStats{Closed: i + 1}); err != nil {
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
	// timings of its own step, and the counters moved with it.
	traces := ll.state.traces()
	if last := traces[len(traces)-1]; len(traces) != min(i, d.cfg.History) || last.Interval != i-1 || last.StepNanos <= 0 {
		t.Errorf("ring holds %d traces ending %+v after %d intervals", len(traces), last, i)
	}
	if got := ll.state.metrics.step.count(); got != uint64(i) {
		t.Errorf("step histogram counted %d intervals, want %d", got, i)
	}
}

// TestIdleLinkFootprint pins what a link costs before its first record:
// heap bytes and heap objects per link, over 512 links made by
// createLink at the default Config (History 288, the default queue,
// elephantd's default scheme). The figure repeats to within a few dozen
// bytes, so the bounds sit just above it: 73 979–73 990 B (73 987 B
// under -race) and 47 mallocs a link on 2 vCPU, go1.24, once a link's
// stage histograms and churn totals became fields of its LinkState
// instead of registry series (76 242–76 253 B and 93 before), plus 1 %
// and one malloc.
func TestIdleLinkFootprint(t *testing.T) {
	const (
		links     = 512
		maxBytes  = 73_990 * 101 / 100
		maxAllocs = 47 + 1
	)
	d := newPinDaemon(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < links; i++ {
		if _, err := d.createLink(linkKey{addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})}); err != nil {
			t.Fatal(err)
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
