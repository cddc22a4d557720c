package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/stats"
)

var traceStart = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

func testTable(t *testing.T, routes int) *bgp.Table {
	t.Helper()
	tab, err := bgp.Generate(bgp.GenConfig{Routes: routes, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func testLink(t *testing.T, cfg LinkConfig) *Link {
	t.Helper()
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestProfilesNormalized(t *testing.T) {
	for _, p := range []DiurnalProfile{WestCoastProfile(), EastCoastProfile(), FlatProfile()} {
		var sum float64
		const steps = 1440
		for i := 0; i < steps; i++ {
			v := p.At(time.Duration(i) * time.Minute)
			if v <= 0 {
				t.Fatalf("%s: non-positive multiplier %v at minute %d", p.Name(), v, i)
			}
			sum += v
		}
		mean := sum / steps
		if math.Abs(mean-1) > 0.01 {
			t.Errorf("%s: daily mean = %v, want ≈ 1", p.Name(), mean)
		}
	}
}

func TestProfileShapes(t *testing.T) {
	west, east := WestCoastProfile(), EastCoastProfile()
	ratio := func(p DiurnalProfile) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 1440; i++ {
			v := p.At(time.Duration(i) * time.Minute)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi / lo
	}
	rw, re := ratio(west), ratio(east)
	if rw <= re {
		t.Errorf("west peak/trough %v must exceed east %v (paper: west burstier)", rw, re)
	}
	if rw < 1.8 || rw > 3.2 {
		t.Errorf("west peak/trough = %v, want ≈ 2.4", rw)
	}
	// Working-hours peak: the profile at 14:00 must exceed 04:00.
	if west.At(14*time.Hour) <= west.At(4*time.Hour) {
		t.Error("west profile does not peak in working hours")
	}
}

func TestProfileWrapsMidnight(t *testing.T) {
	p := WestCoastProfile()
	if a, b := p.At(0), p.At(24*time.Hour); math.Abs(a-b) > 1e-9 {
		t.Errorf("profile discontinuous at midnight: %v vs %v", a, b)
	}
	if a, b := p.At(-time.Hour), p.At(23*time.Hour); math.Abs(a-b) > 1e-9 {
		t.Errorf("negative offsets not wrapped: %v vs %v", a, b)
	}
}

func TestNewLinkValidation(t *testing.T) {
	tab := testTable(t, 100)
	cases := []struct {
		name string
		cfg  LinkConfig
	}{
		{"no table", LinkConfig{Flows: 10, MeanLoadBps: 1e6}},
		{"zero flows", LinkConfig{Table: tab, MeanLoadBps: 1e6}},
		{"flows exceed table", LinkConfig{Table: tab, Flows: 101, MeanLoadBps: 1e6}},
		{"zero load", LinkConfig{Table: tab, Flows: 10}},
		{"tail index <= 1", LinkConfig{Table: tab, Flows: 10, MeanLoadBps: 1e6, TailIndex: 0.9}},
	}
	for _, tc := range cases {
		if _, err := NewLink(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGenerateSeriesDeterministic(t *testing.T) {
	tab := testTable(t, 500)
	mk := func() []float64 {
		l := testLink(t, LinkConfig{Table: tab, Flows: 200, MeanLoadBps: 1e7, Seed: 3})
		s := l.GenerateSeries(traceStart, time.Minute, 30)
		out := make([]float64, s.Intervals)
		for tt := 0; tt < s.Intervals; tt++ {
			out[tt] = s.TotalBandwidth(tt)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d: %v vs %v (same seed must reproduce exactly)", i, a[i], b[i])
		}
	}
}

func TestGenerateSeriesMeanLoad(t *testing.T) {
	tab := testTable(t, 2000)
	const target = 50e6
	l := testLink(t, LinkConfig{
		Table: tab, Flows: 1000, MeanLoadBps: target, Seed: 4,
		Profile: FlatProfile(),
	})
	// A full day to average out the on/off cycles.
	s := l.GenerateSeries(traceStart, 5*time.Minute, 288)
	var sum float64
	for tt := 0; tt < s.Intervals; tt++ {
		sum += s.TotalBandwidth(tt)
	}
	mean := sum / float64(s.Intervals)
	if mean < target*0.5 || mean > target*2.0 {
		t.Errorf("mean load = %.3g, want within 2x of %.3g", mean, target)
	}
}

func TestGenerateSeriesDiurnalShape(t *testing.T) {
	tab := testTable(t, 2000)
	l := testLink(t, LinkConfig{
		Table: tab, Flows: 1000, MeanLoadBps: 100e6, Seed: 5,
		Profile: WestCoastProfile(),
	})
	// Start at midnight for easy phase accounting; 24 h of 5-min slots.
	midnight := time.Date(2001, time.July, 24, 0, 0, 0, 0, time.UTC)
	s := l.GenerateSeries(midnight, 5*time.Minute, 288)
	loadAt := func(h int) float64 {
		var v float64
		for k := 0; k < 12; k++ { // average the hour
			v += s.TotalBandwidth(h*12 + k)
		}
		return v / 12
	}
	peak, trough := loadAt(14), loadAt(4)
	if peak <= trough*1.5 {
		t.Errorf("working-hours load %v not clearly above night load %v", peak, trough)
	}
}

// TestHeavyTailPresent: the per-flow rates of a generated interval must
// be heavy-tailed enough that the top 10%% of flows carry most traffic —
// the elephants-and-mice premise of the paper.
func TestHeavyTailPresent(t *testing.T) {
	tab := testTable(t, 5000)
	l := testLink(t, LinkConfig{Table: tab, Flows: 3000, MeanLoadBps: 100e6, Seed: 6})
	s := l.GenerateSeries(traceStart, 5*time.Minute, 4)
	snap := s.Snapshot(2, nil)
	bws := snap.Bandwidths()
	total := snap.TotalLoad()
	q90 := stats.QuantileSorted(snap.SortedBandwidths(), 0.9)
	var topLoad float64
	for _, bw := range bws {
		if bw >= q90 {
			topLoad += bw
		}
	}
	if frac := topLoad / total; frac < 0.5 {
		t.Errorf("top 10%% of flows carry %.2f of traffic, want > 0.5 (heavy tail)", frac)
	}
}

// TestMiceChurn: mouse flows must switch on and off; heavy flows must
// stay on (the generator's documented contract).
func TestMiceChurn(t *testing.T) {
	tab := testTable(t, 2000)
	l := testLink(t, LinkConfig{Table: tab, Flows: 1000, MeanLoadBps: 50e6, Seed: 7})
	s := l.GenerateSeries(traceStart, 5*time.Minute, 96)

	heavies := 0
	for i := range l.flows {
		f := &l.flows[i]
		row, ok := s.Row(f.prefix)
		if !ok {
			continue
		}
		zeros := 0
		for _, v := range row {
			if v == 0 {
				zeros++
			}
		}
		if f.heavy {
			heavies++
			if zeros > 0 {
				t.Errorf("heavy flow %v idle in %d/%d intervals", f.prefix, zeros, len(row))
			}
		}
	}
	if heavies == 0 {
		t.Fatal("no heavy flows sampled")
	}
	// Aggregate churn: a noticeable share of mouse slots must be idle.
	idleSlots, mouseSlots := 0, 0
	for i := range l.flows {
		if l.flows[i].heavy {
			continue
		}
		row, ok := s.Row(l.flows[i].prefix)
		if !ok {
			continue
		}
		for _, v := range row {
			mouseSlots++
			if v == 0 {
				idleSlots++
			}
		}
	}
	frac := float64(idleSlots) / float64(mouseSlots)
	// Duty cycle 18 on / 6 off -> ~25% idle.
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("mouse idle fraction = %.3f, want ≈ 0.25", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	l := testLink(t, LinkConfig{Table: testTable(t, 100), Flows: 10, MeanLoadBps: 1e6, Seed: 8})
	const mean = 12.0
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := geometric(l.rng, mean)
		if d < 1 {
			t.Fatalf("geometric returned %d < 1", d)
		}
		sum += float64(d)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.05 {
		t.Errorf("geometric mean = %v, want ≈ %v", got, mean)
	}
	if g := geometric(l.rng, 0.5); g != 1 {
		t.Errorf("geometric(mean<=1) = %d, want 1", g)
	}
}

// TestBurstModulationUnbiased: the AR(1) lognormal modulation must keep
// the long-run mean rate near the base rate (the exp(sigma^2/2)
// correction).
func TestBurstModulationUnbiased(t *testing.T) {
	tab := testTable(t, 200)
	l := testLink(t, LinkConfig{
		Table: tab, Flows: 50, MeanLoadBps: 1e6, Seed: 9,
		Profile:          FlatProfile(),
		MeanOnIntervals:  1e9, // effectively always on
		MeanOffIntervals: 1e-9,
	})
	// Pick one heavy (always-on) flow and average many steps.
	var f *flowState
	for i := range l.flows {
		if l.flows[i].heavy {
			f = &l.flows[i]
			break
		}
	}
	if f == nil {
		f = &l.flows[0]
	}
	base := f.baseRate
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += l.step(f, 1.0)
	}
	mean := sum / n
	if mean < base*0.9 || mean > base*1.1 {
		t.Errorf("long-run mean rate %v vs base %v: modulation is biased", mean, base)
	}
}

func TestConfigEcho(t *testing.T) {
	tab := testTable(t, 100)
	l := testLink(t, LinkConfig{Table: tab, Flows: 10, MeanLoadBps: 1e6})
	cfg := l.Config()
	if cfg.TailIndex == 0 || cfg.BurstSigma == 0 || cfg.Profile == nil {
		t.Errorf("Config() did not echo defaults: %+v", cfg)
	}
}
