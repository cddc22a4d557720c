package netflow

import (
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
)

// CollectorStats counts record attribution outcomes.
type CollectorStats struct {
	Datagrams  uint64
	Records    uint64
	Routed     uint64
	Unrouted   uint64
	OutOfRange uint64
}

// Collector aggregates NetFlow records into a per-prefix bandwidth
// series — the flow-record twin of agg.Aggregator. A record's octets are
// spread uniformly over its [First, Last] span, clipped to the series
// window, so long flows crossing interval boundaries are apportioned
// correctly (assigning all bytes to one interval would let the active
// timeout alias the diurnal signal). The spreading arithmetic lives in
// agg (Series.AddRecord), shared with the streaming accumulator, so
// batch collection and streaming ingestion of the same records produce
// bit-identical series.
type Collector struct {
	table  *bgp.Table
	series *agg.Series
	recs   []agg.Record // AttributeDatagram scratch, reused across datagrams

	// Stats counts attribution outcomes.
	Stats CollectorStats
}

// NewCollector creates a collector writing into series.
func NewCollector(table *bgp.Table, series *agg.Series) *Collector {
	return &Collector{table: table, series: series}
}

// Series returns the series under construction.
func (c *Collector) Series() *agg.Series { return c.series }

// AddDatagram attributes the datagram's records in one
// AttributeDatagram pass and apportions each routed one into the series.
func (c *Collector) AddDatagram(d *Datagram) {
	c.Stats.Datagrams++
	c.Stats.Records += uint64(len(d.Records))
	recs, unrouted := AttributeDatagram(c.table, d, c.recs[:0])
	c.recs = recs
	c.Stats.Unrouted += uint64(unrouted)
	for i := range recs {
		if c.series.AddRecord(recs[i]) {
			c.Stats.Routed++
		} else {
			c.Stats.OutOfRange++
		}
	}
}

// Attribute longest-prefix matches one v5 record and normalises it to
// the unified agg.Record form (a point record for degenerate spans),
// reporting false for unrouted destinations. It is the by-value form of
// the single record→flow attribution step (attributeInto) that
// AttributeDatagram runs for the batch Collector, the streaming
// RecordSource and the serving daemon's UDP ingest, so every ingest
// path classifies identical traffic identically.
func Attribute(table *bgp.Table, h Header, r Record) (agg.Record, bool) {
	var rec agg.Record
	ok := attributeInto(table, &h, &r, &rec)
	return rec, ok
}

// AttributeDatagram attributes every record of d in order, appending
// the routed ones to dst and counting the rest. Routed records are
// written in place into dst's spare capacity — a caller that passes the
// previous call's result re-sliced to [:0] (a reader's per-datagram
// scratch) allocates nothing once dst has held a full datagram — and an
// unrouted record takes no slot.
func AttributeDatagram(table *bgp.Table, d *Datagram, dst []agg.Record) (recs []agg.Record, unrouted int) {
	n := len(dst)
	dst = slices.Grow(dst, len(d.Records))[:n+len(d.Records)]
	for i := range d.Records {
		if attributeInto(table, &d.Header, &d.Records[i], &dst[n]) {
			n++
		} else {
			unrouted++
		}
	}
	return dst[:n], unrouted
}

// attributeInto is the one body of record→flow attribution. A routed
// record overwrites every field of dst — dst is a reused slot, so a
// field left alone would keep the previous occupant's value — and an
// unrouted one leaves dst untouched.
func attributeInto(table *bgp.Table, h *Header, r *Record, dst *agg.Record) bool {
	prefix, key, ok := table.LookupKey(r.DstAddr)
	if !ok {
		return false
	}
	dst.Prefix = prefix
	dst.Key = key
	dst.Time = h.wallTime(r.First)
	dst.Bits = float64(r.Octets) * 8
	// First and Last tick on one uptime clock, so the span is their
	// difference; it needs neither wall time.
	dst.Span = 0
	if r.Last > r.First {
		dst.Span = time.Duration(r.Last-r.First) * time.Millisecond
	}
	return true
}
