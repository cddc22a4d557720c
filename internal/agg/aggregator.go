package agg

import (
	"errors"
	"io"
	"time"

	"repro/internal/bgp"
	"repro/internal/packet"
)

// Aggregator consumes decoded packets and fills a Series, attributing
// each packet to its BGP destination prefix by longest-prefix match —
// the paper's flow granularity.
type Aggregator struct {
	table  *bgp.Table
	series *Series

	// Stats counts attribution outcomes.
	Stats AggregatorStats
}

// AggregatorStats counts packet attribution outcomes.
type AggregatorStats struct {
	Packets    uint64 // packets presented
	Routed     uint64 // attributed to a prefix
	Unrouted   uint64 // no covering route (excluded, as in the paper)
	OutOfRange uint64 // timestamp outside the series window
}

// NewAggregator creates an aggregator writing into series.
func NewAggregator(table *bgp.Table, series *Series) *Aggregator {
	return &Aggregator{table: table, series: series}
}

// Series returns the series under construction.
func (a *Aggregator) Series() *Series { return a.series }

// AddPacket attributes one decoded packet. Wire length is accounted (the
// paper measures link bandwidth). Packets destined to unrouted space or
// timestamped outside the window are counted and dropped.
func (a *Aggregator) AddPacket(ts time.Time, sum packet.Summary) {
	a.Stats.Packets++
	t := a.series.IntervalOf(ts)
	if t < 0 {
		a.Stats.OutOfRange++
		return
	}
	prefix, ok := a.table.LookupPrefix(sum.DstIP)
	if !ok {
		a.Stats.Unrouted++
		return
	}
	a.Stats.Routed++
	a.series.AddBits(prefix, t, float64(sum.WireLength)*8)
}

// ReadPcap streams an entire pcap capture through parser and aggregator.
// It returns the number of frames processed. Decode failures of single
// frames are tolerated (counted in parser stats); file-level corruption
// aborts with an error.
func ReadPcap(r io.Reader, table *bgp.Table, series *Series) (int, AggregatorStats, error) {
	src, err := NewPcapPacketSource(r)
	if err != nil {
		return 0, AggregatorStats{}, err
	}
	aggr := NewAggregator(table, series)
	for {
		ts, sum, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return int(src.ParserStats().Frames), aggr.Stats, err
		}
		aggr.AddPacket(ts, sum)
	}
	return int(src.ParserStats().Frames), aggr.Stats, nil
}
