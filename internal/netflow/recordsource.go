package netflow

import (
	"repro/internal/agg"
	"repro/internal/bgp"
)

// RecordSourceStats counts streaming attribution outcomes.
type RecordSourceStats struct {
	Datagrams uint64
	Records   uint64
	Routed    uint64
	Unrouted  uint64
}

// RecordSource adapts a framed NetFlow v5 stream to the unified
// agg.RecordSource API: datagrams are decoded one at a time, each
// datagram's records longest-prefix matched against the BGP table in
// one AttributeDatagram pass and then yielded one per Next as span
// records: the consumer spreads a record's octets uniformly over
// [First, Last], so a long flow crossing interval boundaries is
// apportioned by overlap (all its bytes in one interval would let the
// exporter's active timeout alias the diurnal signal). Unrouted records
// are counted and skipped. Both consumers — agg.Collect into a Series,
// engine.RunStreaming into a StreamAccumulator — run the same apportioning
// arithmetic, so the two are bit-identical on one stream.
//
// Flow records are exported out of order up to the cache's active
// timeout: size the accumulator window to cover at least
// timeout/interval + 1 intervals so no bits land behind the closed
// edge.
type RecordSource struct {
	sr    *StreamReader
	table *bgp.Table
	recs  []agg.Record // the current datagram's routed records
	next  int          // index of the next record in recs

	// Stats counts attribution outcomes, a datagram at a time: Records,
	// Routed and Unrouted cover every datagram read so far, including
	// the one Next is part-way through yielding.
	Stats RecordSourceStats
}

// NewRecordSource returns a RecordSource draining sr against table.
func NewRecordSource(sr *StreamReader, table *bgp.Table) *RecordSource {
	return &RecordSource{sr: sr, table: table}
}

// Next returns the next routed flow record. io.EOF marks a clean end of
// stream.
func (s *RecordSource) Next() (agg.Record, error) {
	for s.next == len(s.recs) {
		d, err := s.sr.Next()
		if err != nil {
			return agg.Record{}, err // a clean end is StreamReader's bare io.EOF
		}
		var unrouted int
		s.recs, unrouted = AttributeDatagram(s.table, d, s.recs[:0])
		s.next = 0
		s.Stats.Datagrams++
		s.Stats.Records += uint64(len(d.Records))
		s.Stats.Routed += uint64(len(s.recs))
		s.Stats.Unrouted += uint64(unrouted)
	}
	s.next++
	return s.recs[s.next-1], nil
}
