package netflow

import (
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

	// Stats counts attribution outcomes.
	Stats CollectorStats
}

// NewCollector creates a collector writing into series.
func NewCollector(table *bgp.Table, series *agg.Series) *Collector {
	return &Collector{table: table, series: series}
}

// Series returns the series under construction.
func (c *Collector) Series() *agg.Series { return c.series }

// AddDatagram attributes every record of the datagram.
func (c *Collector) AddDatagram(d *Datagram) {
	c.Stats.Datagrams++
	for i := range d.Records {
		c.addRecord(d.Header, d.Records[i])
	}
}

func (c *Collector) addRecord(h Header, r Record) {
	c.Stats.Records++
	rec, ok := Attribute(c.table, h, r)
	if !ok {
		c.Stats.Unrouted++
		return
	}
	if c.series.AddRecord(rec) {
		c.Stats.Routed++
	} else {
		c.Stats.OutOfRange++
	}
}

// Attribute longest-prefix matches one v5 record and normalises it to
// the unified agg.Record form (a point record for degenerate spans),
// reporting false for unrouted destinations. It is the single
// record→flow attribution step shared by the batch Collector, the
// streaming RecordSource and the serving daemon's UDP ingest, so every
// ingest path classifies identical traffic identically.
func Attribute(table *bgp.Table, h Header, r Record) (agg.Record, bool) {
	prefix, key, ok := table.LookupKey(r.DstAddr)
	if !ok {
		return agg.Record{}, false
	}
	rec := agg.Record{
		Prefix: prefix,
		Key:    key,
		Time:   h.wallTime(r.First),
		Bits:   float64(r.Octets) * 8,
	}
	// First and Last tick on one uptime clock, so the span is their
	// difference; it needs neither wall time.
	if r.Last > r.First {
		rec.Span = time.Duration(r.Last-r.First) * time.Millisecond
	}
	return rec, true
}
