package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
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
// other links' runs. With one worker the link whose pipeline fails to
// build is drawn first, before the worker has interned any rows, so a
// series loop that ran a task without a live cell would read no row IDs.
func TestEnginePerLinkErrorsIsolated(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{2, 1} {
		links := testLinks(3)
		links[0].Config = func() (core.Config, error) { return core.Config{}, boom }
		links[2].Series = nil
		out, err := (&MultiLinkEngine{Workers: workers}).Run(links)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(out[0].Err, boom) {
			t.Errorf("workers=%d: link-00 err = %v, want wrapped boom", workers, out[0].Err)
		}
		if out[1].Err != nil || out[1].Results == nil {
			t.Errorf("workers=%d: healthy link failed: %v", workers, out[1].Err)
		}
		if out[2].Err == nil {
			t.Errorf("workers=%d: nil-series link reported no error", workers)
		}
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

// TestEngineSparseLinkError: a link whose bootstrap interval is empty
// surfaces the pipeline error without stopping the engine.
func TestEngineSparseLinkError(t *testing.T) {
	sparse := agg.NewSeries(start, 5*time.Minute, 2)
	sparse.SetBandwidth(netip.MustParsePrefix("10.0.0.0/24"), 1, 1)
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
