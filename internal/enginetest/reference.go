package enginetest

import (
	"math"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// gate is the accumulator's admission rule re-derived from its
// documentation (agg.StreamAccumulator.Add): the sealed edge base, the
// newest interval with bits, and the counters.
type gate struct {
	origin   time.Time
	interval int64
	window   int
	base     int
	newest   int
	stats    agg.StreamStats
}

// admit counts rec and reports whether any of its bits land: for a record
// that lands it returns the sealed edge its bits are clipped at.
func (g *gate) admit(rec agg.Record) (lo int, lands bool) {
	g.stats.Records++
	off, span := int64(rec.Time.Sub(g.origin)), int64(max(rec.Span, 0))
	last := off
	if span > 0 {
		if last = off + span - 1; last < off {
			last = math.MaxInt64
		}
	}
	if last < 0 {
		g.stats.Late++
		g.stats.LateBits += rec.Bits
		return 0, false
	}
	end := int(last / g.interval)
	if end > max(g.newest, g.base-1)+agg.DefaultStreamMaxGap {
		g.stats.FarFuture++
		g.stats.FarFutureBits += rec.Bits
		return 0, false
	}
	g.base = max(g.base, end-g.window+1)
	if end < g.base {
		g.stats.Late++
		g.stats.LateBits += rec.Bits
		return 0, false
	}
	g.newest = max(g.newest, end)
	g.stats.InWindow++
	if rec.Bits <= 0 {
		return 0, false
	}
	if clip := int64(g.base) * g.interval; off < clip {
		g.stats.LateBits += rec.Bits * float64(clip-off) / float64(span)
	}
	return g.base, true
}

// Reference returns what a StreamAccumulator with c's Start, Interval and
// Window must make of c.Records: the batch series agg.Collect builds from
// the bits it keeps — every record that lands, less any part before the
// sealed edge it arrived at — and the counters it must report after a
// Flush. The series is nil when no interval closes.
func (c Case) Reference() (*agg.Series, agg.StreamStats) {
	type kept struct {
		rec agg.Record
		lo  int
	}
	var keep []kept
	g := gate{origin: c.Origin(), interval: int64(c.Interval), window: c.Window, newest: -1}
	for _, rec := range c.Records {
		if lo, ok := g.admit(rec); ok {
			keep = append(keep, kept{rec, lo})
		}
	}
	n := max(g.base, g.newest+1)
	g.stats.Closed = n
	if n == 0 {
		return nil, g.stats
	}
	s := agg.NewSeries(g.origin, c.Interval, n)
	for _, k := range keep {
		at := g.origin.Add(time.Duration(k.lo) * c.Interval)
		if !k.rec.Time.Before(at) {
			s.AddRecord(k.rec)
			continue
		}
		// Clipped by the sealed edge: spread over a series starting at the
		// edge, then added cell by cell.
		part := agg.NewSeries(at, c.Interval, n-k.lo)
		part.AddRecord(k.rec)
		for t := 0; t < part.Intervals; t++ {
			if bw := part.Bandwidth(k.rec.Prefix, t); bw > 0 {
				s.SetBandwidth(k.rec.Prefix, k.lo+t, s.Bandwidth(k.rec.Prefix, k.lo+t)+bw)
			}
		}
	}
	for t := 0; t < n; t++ {
		g.stats.EvictedFlows += uint64(s.ActiveFlows(t))
	}
	return s, g.stats
}

// Sequential is the batch reference every path is held to: one core
// pipeline from factory, stepped over the series' plain snapshots in
// order, detecting inline — no flow IDs, no pool, no engine code. It
// returns the results of the intervals before the first failure, and the
// failure.
func Sequential(s *agg.Series, factory func() (core.Config, error)) ([]core.Result, error) {
	cfg, err := factory()
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	var snap *core.FlowSnapshot
	results := make([]core.Result, 0, s.Intervals)
	for t := 0; t < s.Intervals; t++ {
		snap = s.Snapshot(t, snap)
		res, err := pipe.Step(snap)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}
