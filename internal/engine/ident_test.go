package engine

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// churnConfig builds a pipeline whose classifier evicts aggressively —
// W = 1, so a flow idle for 4 intervals is dropped — so flow-table
// releases, quarantined IDs, resurrections and recycling all happen
// inside a short trace.
func churnConfig() (core.Config, error) {
	det, err := core.NewConstantLoadDetector(0.8)
	if err != nil {
		return core.Config{}, err
	}
	lh, err := core.NewLatentHeatClassifier(1)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Detector: det, Alpha: 0.5, Classifier: lh, MinFlows: 2}, nil
}

// churnRecords synthesises a trace exercising the flow-identity
// lifecycle: churners idle just long enough to be evicted and return
// within the ID quarantine (resurrection), sleepers leave for longer
// than the quarantine (their IDs are recycled), and late arrivals
// intern after IDs have been freed (recycling under live traffic).
func churnRecords(seed int64, intervals int, iv time.Duration) []agg.Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []agg.Record
	active := func(f, t int) bool {
		switch {
		case f < 4: // anchors: always on, keep MinFlows satisfied
			return true
		case f < 20: // churners: idle phases just past eviction (evict + resurrect)
			return (t+f)%11 >= 5
		case f < 28: // sleepers: one long absence > quarantine
			return t < 5 || t > 5+20+f%7
		default: // late arrivals: first seen after IDs were freed
			return t > 30+(f%5)
		}
	}
	for t := 0; t < intervals; t++ {
		for f := 0; f < 36; f++ {
			if !active(f, t) {
				continue
			}
			p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", f/256, f%256))
			off := time.Duration(rng.Int63n(int64(iv)))
			recs = append(recs, agg.Record{Prefix: p, Time: start.Add(time.Duration(t)*iv + off), Bits: 1e5 * (1 + rng.Float64())})
		}
	}
	return recs
}

// TestStreamEvictionRecyclingMatchesBatch pins the flow-identity
// contract end to end: a streaming run whose classifier keeps evicting
// flows — releasing dense IDs into the shared table's quarantine, with
// later traffic resurrecting some and recycling others — must stay
// byte-identical to the sequential oracle over a series collected from
// the same records (which re-interns every interval's prefixes, so no
// ID outlives the snapshot it came with). Any ID aliased or dropped too
// early shows up as a diverging elephant set or load.
func TestStreamEvictionRecyclingMatchesBatch(t *testing.T) {
	iv := time.Minute
	const intervals = 64
	recycledSomewhere := false
	for seed := int64(0); seed < 5; seed++ {
		recs := churnRecords(seed, intervals, iv)

		s := agg.NewSeries(start, iv, intervals)
		if _, err := agg.Collect(&sliceSource{recs: recs}, s); err != nil {
			t.Fatal(err)
		}
		want := sequential(t, s, churnConfig)

		for _, window := range []int{1, 3} {
			// The shared-table wiring (StreamConfig.Table), by hand, so the
			// table stays inspectable after the run.
			cfg, err := churnConfig()
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := core.NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := agg.NewStreamAccumulator(agg.StreamConfig{
				Start: start, Interval: iv, Window: window, Table: pipe.Table(),
			})
			if err != nil {
				t.Fatal(err)
			}
			var results []core.Result
			idOwners := make(map[uint32]map[netip.Prefix]bool)
			acc.Emit = func(tt int, snap *core.FlowSnapshot) error {
				// Every emitted row carries a dense ID; record which
				// prefixes each ID has represented over the run.
				if snap.Len() > 0 && !snap.HasIDs() {
					t.Fatalf("seed %d window %d interval %d: emitted snapshot lacks IDs", seed, window, tt)
				}
				for i := 0; i < snap.Len(); i++ {
					owners := idOwners[snap.ID(i)]
					if owners == nil {
						owners = make(map[netip.Prefix]bool)
						idOwners[snap.ID(i)] = owners
					}
					owners[snap.Key(i)] = true
				}
				res, err := pipe.StepSnapshot(tt, snap)
				if err != nil {
					return err
				}
				results = append(results, res)
				return nil
			}
			if _, err := acc.AddBatch(recs); err != nil {
				t.Fatalf("seed %d window %d: %v", seed, window, err)
			}
			if err := acc.Flush(); err != nil {
				t.Fatalf("seed %d window %d: flush: %v", seed, window, err)
			}
			if len(results) != len(want) {
				t.Fatalf("seed %d window %d: %d intervals, batch %d", seed, window, len(results), len(want))
			}
			for i := range want {
				g, w := results[i], want[i]
				if g.RawThreshold != w.RawThreshold || g.Threshold != w.Threshold ||
					g.ElephantLoad != w.ElephantLoad || g.TotalLoad != w.TotalLoad ||
					g.ActiveFlows != w.ActiveFlows || !g.Elephants.Equal(w.Elephants) {
					t.Fatalf("seed %d window %d interval %d: stream result diverges from batch\n got %+v\nwant %+v",
						seed, window, i, g, w)
				}
			}
			// An ID that represented two different prefixes over the run
			// proves a freed ID was re-bound mid-stream — the recycling
			// path this test exists to cover (and the equivalence above
			// proves the rebinding never leaked bits across identities).
			for _, owners := range idOwners {
				if len(owners) > 1 {
					recycledSomewhere = true
				}
			}
		}
	}
	if !recycledSomewhere {
		t.Fatal("trace never recycled an ID: the scenario no longer covers the free-list path")
	}
}
