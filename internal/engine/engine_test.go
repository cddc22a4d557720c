package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

var start = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

// synthSeries builds a deterministic heavy-tailed series: a few
// persistent heavies over a lognormal mouse population, all driven by
// seed.
func synthSeries(seed int64, flows, intervals int) *agg.Series {
	rng := rand.New(rand.NewSource(seed))
	s := agg.NewSeries(start, 5*time.Minute, intervals)
	for f := 0; f < flows; f++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", f/256, f%256))
		heavy := f < flows/20
		for t := 0; t < intervals; t++ {
			bw := 1e3 * math.Exp(rng.NormFloat64())
			if heavy {
				bw = 1e5 * math.Exp(rng.NormFloat64()*0.3)
			}
			if rng.Float64() < 0.1 {
				continue // idle interval
			}
			s.SetBandwidth(p, t, bw)
		}
	}
	return s
}

// schemeConfig returns a fresh paper-scheme pipeline config (constant
// load + latent heat), independent state per call.
func schemeConfig() (core.Config, error) {
	det, err := core.NewConstantLoadDetector(0.8)
	if err != nil {
		return core.Config{}, err
	}
	lh, err := core.NewLatentHeatClassifier(6)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Detector: det, Alpha: 0.5, Classifier: lh, MinFlows: 4}, nil
}

func testLinks(n int) []Link {
	links := make([]Link, n)
	for i := range links {
		links[i] = Link{
			ID:     fmt.Sprintf("link-%02d", i),
			Series: synthSeries(int64(100+i), 200, 24),
			Config: schemeConfig,
		}
	}
	return links
}

// sequential is the oracle the engine's output is defined against: one
// pipeline built straight on core and stepped over the series' plain
// snapshots — no flow IDs, no pool, no engine code.
func sequential(t testing.TB, s *agg.Series, factory func() (core.Config, error)) []core.Result {
	t.Helper()
	cfg, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap *core.FlowSnapshot
	results := make([]core.Result, 0, s.Intervals)
	for tt := 0; tt < s.Intervals; tt++ {
		snap = s.Snapshot(tt, snap)
		res, err := pipe.Step(snap)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// TestEngineMatchesSequential is the determinism contract: an N-link
// concurrent engine run must produce results identical to N sequential
// Pipeline runs with the same seeds, for any worker count. Run with
// -race to also prove the workers share no mutable state.
func TestEngineMatchesSequential(t *testing.T) {
	const n = 9
	want := make(map[string][]core.Result, n)
	for _, l := range testLinks(n) {
		want[l.ID] = sequential(t, l.Series, l.Config)
	}

	for _, workers := range []int{1, 2, 4, 16} {
		eng := MultiLinkEngine{Workers: workers}
		got, err := eng.Run(testLinks(n))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, lr := range got {
			if lr.Err != nil {
				t.Fatalf("workers=%d link %s: %v", workers, lr.ID, lr.Err)
			}
			if i > 0 && got[i-1].ID >= lr.ID {
				t.Errorf("workers=%d: output not sorted by link ID at %d", workers, i)
			}
			if !reflect.DeepEqual(lr.Results, want[lr.ID]) {
				t.Errorf("workers=%d link %s: concurrent results differ from sequential run", workers, lr.ID)
			}
		}
	}
}

// TestEngineSharedSeries: two links may wrap the same series under
// different schemes (exactly what the Figure 1 sections do); concurrent workers
// must snapshot it race-free and still match sequential runs. Run with
// -race.
func TestEngineSharedSeries(t *testing.T) {
	shared := synthSeries(42, 300, 24)
	mkLinks := func() []Link {
		sf := func() (core.Config, error) {
			det, err := core.NewConstantLoadDetector(0.8)
			if err != nil {
				return core.Config{}, err
			}
			return core.Config{Detector: det, Alpha: 0.5, Classifier: &core.SingleFeatureClassifier{}, MinFlows: 4}, nil
		}
		return []Link{
			{ID: "shared/latent", Series: shared, Config: schemeConfig},
			{ID: "shared/single", Series: shared, Config: sf},
		}
	}
	want := map[string][]core.Result{}
	for _, l := range mkLinks() {
		want[l.ID] = sequential(t, l.Series, l.Config)
	}
	eng := MultiLinkEngine{Workers: 2}
	got, err := eng.Run(mkLinks())
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range got {
		if lr.Err != nil {
			t.Fatal(lr.Err)
		}
		if !reflect.DeepEqual(lr.Results, want[lr.ID]) {
			t.Errorf("link %s: shared-series concurrent run differs from sequential", lr.ID)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	eng := MultiLinkEngine{}
	if out, err := eng.Run(nil); err != nil || out != nil {
		t.Errorf("empty input: %v, %v", out, err)
	}
	links := testLinks(2)
	links[1].ID = links[0].ID
	if _, err := eng.Run(links); err == nil {
		t.Error("duplicate IDs accepted")
	}
	links[1].ID = ""
	if _, err := eng.Run(links); err == nil {
		t.Error("empty ID accepted")
	}
}

// TestEnginePerLinkErrorsIsolated: one broken link must not abort the
// other links' runs.
func TestEnginePerLinkErrorsIsolated(t *testing.T) {
	boom := errors.New("boom")
	links := testLinks(3)
	links[1].Config = func() (core.Config, error) { return core.Config{}, boom }
	links[2].Series = nil
	eng := MultiLinkEngine{Workers: 2}
	out, err := eng.Run(links)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[0].Results == nil {
		t.Errorf("healthy link failed: %v", out[0].Err)
	}
	if !errors.Is(out[1].Err, boom) {
		t.Errorf("link-1 err = %v, want wrapped boom", out[1].Err)
	}
	if out[2].Err == nil {
		t.Error("nil-series link reported no error")
	}
}

// sliceSource replays a fixed record sequence; one use per source.
type sliceSource struct {
	recs []agg.Record
	i    int
}

func (s *sliceSource) Next() (agg.Record, error) {
	if s.i >= len(s.recs) {
		return agg.Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// seriesRecords flattens a series into interval-ordered point records —
// the record stream a live feed of the same traffic would deliver.
func seriesRecords(s *agg.Series) []agg.Record {
	var recs []agg.Record
	for t := 0; t < s.Intervals; t++ {
		at := s.IntervalTime(t)
		for _, p := range s.Flows() {
			if bw := s.Bandwidth(p, t); bw > 0 {
				recs = append(recs, agg.Record{Prefix: p, Time: at, Bits: bw * s.Interval.Seconds()})
			}
		}
	}
	return recs
}

// TestRunStreamingMatchesBatch is the streaming determinism contract:
// driving N links live from record sources (bounded-memory
// accumulators, push-style pipeline) must produce results
// byte-identical to a batch Run over series collected from the very
// same records, for any worker count. Run with -race.
func TestRunStreamingMatchesBatch(t *testing.T) {
	const n = 6
	records := make([][]agg.Record, n)
	batch := make([]Link, n)
	for i := range records {
		records[i] = seriesRecords(synthSeries(int64(200+i), 150, 24))
		s := agg.NewSeries(start, 5*time.Minute, 24)
		if _, err := agg.Collect(&sliceSource{recs: records[i]}, s); err != nil {
			t.Fatal(err)
		}
		batch[i] = Link{ID: fmt.Sprintf("link-%02d", i), Series: s, Config: schemeConfig}
	}
	want, err := (&MultiLinkEngine{}).Run(batch)
	if err != nil {
		t.Fatal(err)
	}

	mkStream := func() []StreamLink {
		links := make([]StreamLink, n)
		for i := range links {
			links[i] = StreamLink{
				ID:       fmt.Sprintf("link-%02d", i),
				Source:   &sliceSource{recs: records[i]},
				Start:    start,
				Interval: 5 * time.Minute,
				Window:   4,
				Config:   schemeConfig,
			}
		}
		return links
	}

	for _, workers := range []int{1, 3, 8} {
		eng := MultiLinkEngine{Workers: workers}
		got, err := eng.RunStreaming(mkStream())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, lr := range got {
			if lr.Err != nil {
				t.Fatalf("workers=%d link %s: %v", workers, lr.ID, lr.Err)
			}
			if lr.ID != want[i].ID {
				t.Fatalf("workers=%d: merge order %q at %d, want %q", workers, lr.ID, i, want[i].ID)
			}
			if !reflect.DeepEqual(lr.Results, want[i].Results) {
				t.Errorf("workers=%d link %s: streaming results differ from batch run", workers, lr.ID)
			}
		}
	}
}

// TestRunStreamingConservation pins LinkResult.Stream: under hostile
// input every record RunStreaming presented is accounted for exactly
// once — Records == InWindow + Late + FarFuture — and every closed
// interval is a result. A failing link reports no results, the wrapped
// error, and the counters as they stood when the link stopped: every
// record a failing source yielded, and at least the records up to the
// interval a failing pipeline could not classify.
func TestRunStreamingConservation(t *testing.T) {
	const iv, window, intervals = 5 * time.Minute, 2, 10
	series := synthSeries(11, 40, intervals)
	base := seriesRecords(series)
	// Hostile records go in after interval 6's traffic: with a window of
	// 2 the closed edge then stands at interval 5.
	cut, upTo2 := 0, 0
	for i, r := range base {
		if !r.Time.After(series.IntervalTime(6)) {
			cut = i + 1
		}
		if r.Time.Before(series.IntervalTime(2)) {
			upTo2 = i + 1
		}
	}
	flow := base[0].Prefix
	at := func(d time.Duration) time.Time { return start.Add(d) }
	var (
		early   = agg.Record{Prefix: flow, Time: at(-time.Minute), Bits: 1e6}                       // before the origin
		stale   = agg.Record{Prefix: flow, Time: at(1 * iv), Bits: 1e6}                             // behind the closed edge
		clipped = agg.Record{Prefix: flow, Time: at(4*iv + iv/2), Span: iv + iv/2, Bits: 3e6}       // half in closed interval 4
		zero    = agg.Record{Prefix: flow, Time: at(6 * iv)}                                        // no bits
		far     = agg.Record{Prefix: flow, Time: at((agg.DefaultStreamMaxGap + 100) * iv), Bits: 1} // past DefaultStreamMaxGap
		dup     = base[cut-1]
	)
	boom := errors.New("boom")
	cases := []struct {
		name      string
		inject    []agg.Record
		config    func() (core.Config, error)
		failAfter int // the source fails after this many records; 0 never
		late, far uint64
		lateBits  bool
		wantErr   string
		// Failure rows: Records is at least records (exactly, for a
		// failing source: every record drawn reaches the link), and all
		// but at most unattributed of them are counted as InWindow, Late
		// or FarFuture.
		records      uint64
		unattributed uint64
	}{
		{name: "clean"},
		{name: "before the origin", inject: []agg.Record{early}, late: 1, lateBits: true},
		{name: "behind the closed edge", inject: []agg.Record{stale}, late: 1, lateBits: true},
		{name: "partially clipped span", inject: []agg.Record{clipped}, lateBits: true},
		{name: "zero bits", inject: []agg.Record{zero}},
		{name: "past MaxGap", inject: []agg.Record{far}, far: 1},
		{name: "duplicate", inject: []agg.Record{dup}},
		{name: "all at once", inject: []agg.Record{early, stale, clipped, zero, far, dup}, late: 2, far: 1, lateBits: true},
		{
			// MinFlows out of reach: the first interval to close fails, on
			// the first record of interval 2.
			name: "failing pipeline",
			config: func() (core.Config, error) {
				cfg, err := schemeConfig()
				cfg.MinFlows = 1 << 20
				return cfg, err
			},
			wantErr: fmt.Sprintf(`engine: link "hostile": core: interval 0: only %d active flows and no prior threshold`, series.ActiveFlows(0)),
			// The accumulate stage runs on until a later seal sees the
			// classify stage failed. When a record triggered that seal
			// rather than the final flush, the record is presented but
			// never attributed (AddBatch).
			records: uint64(upTo2) + 1, unattributed: 1,
		},
		{
			name: "failing source", failAfter: upTo2 + 1,
			wantErr: `engine: link "hostile": boom`,
			records: uint64(upTo2) + 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs := append(append(append([]agg.Record{}, base[:cut]...), c.inject...), base[cut:]...)
			var src agg.RecordSource = &sliceSource{recs: recs}
			if c.failAfter > 0 {
				src = &failingSource{src: src, after: c.failAfter, err: boom}
			}
			if c.config == nil {
				c.config = schemeConfig
			}
			out, err := (&MultiLinkEngine{}).RunStreaming([]StreamLink{{
				ID: "hostile", Source: src, Start: start, Interval: iv, Window: window, Config: c.config,
			}})
			if err != nil {
				t.Fatal(err)
			}
			lr, st := out[0], out[0].Stream
			if c.wantErr != "" {
				if lr.Err == nil || lr.Err.Error() != c.wantErr {
					t.Fatalf("err = %v, want %s", lr.Err, c.wantErr)
				}
				if lr.Results != nil {
					t.Errorf("failed link kept %d results", len(lr.Results))
				}
				if st.Records < c.records || c.failAfter > 0 && st.Records != c.records {
					t.Errorf("counters at the failure: %+v, want Records ≥ %d (exactly, for a failing source)", st, c.records)
				}
				if n := st.InWindow + st.Late + st.FarFuture; n > st.Records || st.Records-n > c.unattributed {
					t.Errorf("conservation broken at the failure: %+v, want at most %d unattributed", st, c.unattributed)
				}
				return
			}
			if lr.Err != nil {
				t.Fatal(lr.Err)
			}
			if st.Records != uint64(len(recs)) || st.Records != st.InWindow+st.Late+st.FarFuture {
				t.Errorf("conservation broken over %d records: %+v", len(recs), st)
			}
			if st.Late != c.late || st.FarFuture != c.far || (st.LateBits > 0) != c.lateBits {
				t.Errorf("counters %+v, want Late %d FarFuture %d LateBits>0 %v", st, c.late, c.far, c.lateBits)
			}
			if st.Closed != len(lr.Results) || st.Closed != intervals {
				t.Errorf("Closed %d, %d results, want %d", st.Closed, len(lr.Results), intervals)
			}
		})
	}
}

// failingSource yields src's records until it has handed out after of
// them, then fails with err.
type failingSource struct {
	src   agg.RecordSource
	after int
	err   error
}

func (s *failingSource) Next() (agg.Record, error) {
	if s.after == 0 {
		return agg.Record{}, s.err
	}
	s.after--
	return s.src.Next()
}

// TestRunStreamingValidation mirrors the batch validation contract.
func TestRunStreamingValidation(t *testing.T) {
	eng := MultiLinkEngine{}
	if out, err := eng.RunStreaming(nil); err != nil || out != nil {
		t.Errorf("empty input: %v, %v", out, err)
	}
	mk := func(id string) StreamLink {
		return StreamLink{ID: id, Source: &sliceSource{}, Interval: time.Minute, Config: schemeConfig}
	}
	if _, err := eng.RunStreaming([]StreamLink{mk("a"), mk("a")}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := eng.RunStreaming([]StreamLink{mk("")}); err == nil {
		t.Error("empty ID accepted")
	}
	out, err := eng.RunStreaming([]StreamLink{
		{ID: "no-source", Interval: time.Minute, Config: schemeConfig},
		{ID: "bad-interval", Source: &sliceSource{}, Interval: 0, Config: schemeConfig},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range out {
		if lr.Err == nil {
			t.Errorf("link %s: structural defect reported no error", lr.ID)
		}
	}
}

// TestEngineSparseLinkError: a link whose bootstrap interval is too
// sparse surfaces the pipeline error without stopping the engine.
func TestEngineSparseLinkError(t *testing.T) {
	sparse := agg.NewSeries(start, 5*time.Minute, 2)
	sparse.SetBandwidth(netip.MustParsePrefix("10.0.0.0/24"), 0, 1)
	links := testLinks(1)
	links = append(links, Link{ID: "sparse", Series: sparse, Config: schemeConfig})
	eng := MultiLinkEngine{}
	out, err := eng.Run(links)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]LinkResult{}
	for _, lr := range out {
		byID[lr.ID] = lr
	}
	if byID["sparse"].Err == nil {
		t.Error("sparse link reported no error")
	}
	if byID["link-00"].Err != nil {
		t.Errorf("healthy link failed: %v", byID["link-00"].Err)
	}
}
