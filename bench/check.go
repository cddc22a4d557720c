package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netflow"
	"repro/internal/scheme"
	"repro/internal/serve"
)

// intervalDigest is what the output check compares per interval: the
// fields the issue names (elephant count, load fraction, threshold,
// elephant-set hash). Floats are compared exactly — batch ≡ stream ≡
// live is a byte-identity contract, not a tolerance.
type intervalDigest struct {
	interval  int
	elephants int
	loadFrac  float64
	threshold float64
	setHash   uint64
}

func hashFlows(n int, flow func(i int) string) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(flow(i)))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func digestResults(rs []core.Result) []intervalDigest {
	out := make([]intervalDigest, len(rs))
	for i := range rs {
		r := &rs[i]
		flows := r.Elephants.Flows()
		out[i] = intervalDigest{
			interval:  r.Interval,
			elephants: r.ElephantCount(),
			loadFrac:  r.LoadFraction(),
			threshold: r.Threshold,
			setHash:   hashFlows(len(flows), func(k int) string { return flows[k].String() }),
		}
	}
	return out
}

// digestHistory digests a link's history as read from the daemon's
// store with flows attached (LinkState.History(0, true)).
func digestHistory(hs []serve.IntervalSummary) []intervalDigest {
	out := make([]intervalDigest, len(hs))
	for i := range hs {
		s := &hs[i]
		out[i] = intervalDigest{
			interval:  s.Interval,
			elephants: s.Elephants,
			loadFrac:  s.LoadFraction,
			threshold: s.ThresholdBps,
			setHash:   hashFlows(len(s.Flows), func(k int) string { return s.Flows[k] }),
		}
	}
	return out
}

// digestMismatches counts the intervals of want that got does not
// reproduce exactly (missing ones included). got may be longer: the
// reference usually covers only a run's first repetitions.
func digestMismatches(got, want []intervalDigest) int {
	bad := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// resultMismatches is digestMismatches for two in-process result
// columns, comparing the elephant sets member by member.
func resultMismatches(got, want []core.Result) int {
	bad := 0
	for i := range want {
		if i >= len(got) {
			bad++
			continue
		}
		g, w := &got[i], &want[i]
		if g.Interval != w.Interval || g.RawThreshold != w.RawThreshold || g.Threshold != w.Threshold ||
			g.ElephantLoad != w.ElephantLoad || g.TotalLoad != w.TotalLoad || g.ActiveFlows != w.ActiveFlows ||
			!g.Elephants.Equal(w.Elephants) {
			bad++
		}
	}
	return bad
}

// collectSeries is the batch reference's ingest: decode and attribute
// the first reps repetitions of the wire set into one agg.Series per
// exporter (Series.AddRecord shares the accumulator's apportioning
// arithmetic). It reports how many records failed to land.
func collectSeries(table *bgp.Table, wire *wireSet, reps int) (series []*agg.Series, notLanded int, err error) {
	series = make([]*agg.Series, wire.links)
	for l := range series {
		series[l] = agg.NewSeries(traceStart, benchInterval, reps*intervalsPerRep)
	}
	var dg netflow.Datagram
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < wire.datagrams(); i++ {
			if err := netflow.DecodeInto(wire.datagram(i, rep), &dg); err != nil {
				return nil, 0, fmt.Errorf("bench: reference decode: %w", err)
			}
			s := series[dg.Header.EngineID]
			for k := range dg.Records {
				rec, ok := netflow.Attribute(table, dg.Header, dg.Records[k])
				if !ok || !s.AddRecord(rec) {
					notLanded++
				}
			}
		}
	}
	return series, notLanded, nil
}

// linkName is the ID a daemon on loopback gives exporter l.
func linkName(l int) string { return fmt.Sprintf("127.0.0.1@%d", l) }

// batchReference classifies the first reps repetitions of the wire set
// through the batch engine: one Series per exporter, MultiLinkEngine.Run.
// The returned map is keyed by linkName.
func batchReference(table *bgp.Table, wire *wireSet, sp *scheme.Spec, reps int) (map[string][]core.Result, int, error) {
	series, notLanded, err := collectSeries(table, wire, reps)
	if err != nil {
		return nil, 0, err
	}
	links := make([]engine.Link, len(series))
	for l, s := range series {
		links[l] = engine.Link{ID: linkName(l), Series: s, Config: sp.Factory()}
	}
	var eng engine.MultiLinkEngine
	lrs, err := eng.Run(links)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string][]core.Result, len(lrs))
	for _, lr := range lrs {
		if lr.Err != nil {
			return nil, 0, lr.Err
		}
		out[lr.ID] = lr.Results
	}
	return out, notLanded, nil
}
