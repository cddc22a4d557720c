package agg

import (
	"errors"
	"io"
	"math"
	"net/netip"
	"time"
)

// Record is one prefix-attributable observation — the unit every ingest
// substrate is normalised to. A decoded packet is a point record (Span
// zero, Bits = wire length × 8); a NetFlow record is a span record
// whose octets are spread uniformly over [Time, Time+Span]; the
// synthetic generator emits one point record per active flow per
// interval. Records are the common currency of the batch path
// (Series.AddRecord / Collect) and the streaming path
// (StreamAccumulator.Add): both run the identical apportioning
// arithmetic, which is what makes streaming classification
// byte-identical to batch classification on the same record sequence.
type Record struct {
	// Prefix is the BGP flow the bits belong to, already resolved by
	// longest-prefix match.
	Prefix netip.Prefix
	// Time is the start of the observation.
	Time time.Time
	// Span is the observation's duration: zero for point observations
	// (a packet), positive for flow records. A negative Span is treated
	// as zero.
	Span time.Duration
	// Bits is the observed volume in bits.
	Bits float64
	// Key is an optional interning shortcut: a non-zero value the source
	// promises to pair with this Prefix every time (netflow.Attribute
	// sets the routing table's bgp.Table.LookupKey answer). The
	// accumulator hands it to core.FlowTable.InternKeyed, which verifies
	// it against Prefix, so a wrong or reused key costs a hash and never
	// a misattribution. Zero means no key.
	Key uint32
}

// extent places the record on the integer clock both accumulators run
// on: its start in nanoseconds since origin (saturating the way
// time.Time.Sub does, so a timestamp centuries off reads as the far
// past or the far future rather than wrapping) and its span, negative
// spans clamped to a point at Time.
func (r *Record) extent(origin time.Time) (off, span int64) {
	return int64(r.Time.Sub(origin)), int64(max(r.Span, 0))
}

// RecordSource is the unified iterator every ingest substrate adapts
// to: pcap captures (PacketRecordSource), NetFlow streams
// (netflow.RecordSource) and the synthetic generator
// (trace.RecordStream). Next returns io.EOF at a clean end of stream.
// Sources should yield records roughly ordered by End: the streaming
// accumulator drops bits that reach further back than its window.
type RecordSource interface {
	Next() (Record, error)
}

// spreadRecord apportions bits over measurement intervals, calling
// add(t, bits) for every interval of the window it reaches, and reports
// whether any bits landed. It is the single implementation of the
// apportioning arithmetic shared by the batch Series and the
// StreamAccumulator, so the two paths accumulate bit-identical values:
//
//   - a point record lands wholly in the interval containing off;
//   - a span record is spread uniformly: each covered interval gets
//     bits × (overlap / span), with the fraction's denominator the
//     *full* span, so portions clipped off by the window are dropped
//     rather than renormalised.
//
// off and span are the record's extent and interval is Δ, all in
// nanoseconds on the clock whose zero is the left edge of interval 0;
// the window is intervals [lo, hi).
func spreadRecord(off, span int64, bits float64, interval int64, lo, hi int, add func(t int, bits float64)) bool {
	t := lo - 1 // off < 0 lies before interval 0, hence before the window
	if off >= 0 {
		t = int(off / interval)
	}
	end := off + span
	if end < off { // a saturated far-future off plus its span
		end = math.MaxInt64
	}
	if t >= lo && end <= int64(t+1)*interval {
		// The record lies inside one interval (every point record does):
		// overlap = span, and bits × 1 is bits.
		if t >= hi {
			return false
		}
		add(t, bits)
		return true
	}
	if span == 0 {
		return false // a point before the window
	}
	cur := off
	if t < lo {
		t, cur = lo, int64(lo)*interval
	}
	landed := false
	for ; t < hi && cur < end; t++ {
		segEnd := min(end, int64(t+1)*interval)
		add(t, bits*(float64(segEnd-cur)/float64(span)))
		landed = true
		cur = segEnd
	}
	return landed
}

// AddRecord apportions one record into the series, spreading span
// records uniformly over the intervals they cover (clipped to the
// series window). It reports whether any bits landed. This is the
// batch-side twin of StreamAccumulator.Add: both run spreadRecord, so a
// series filled by AddRecord and a stream fed the same records carry
// bit-identical interval values. The flow's row is resolved once, by
// the first cell spreadRecord finds inside the window, so a record
// wholly outside it still leaves no row behind.
func (s *Series) AddRecord(rec Record) bool {
	off, span := rec.extent(s.Start)
	row := -1
	return spreadRecord(off, span, rec.Bits, int64(s.Interval), 0, s.Intervals, func(t int, bits float64) {
		if row < 0 {
			row = s.RowIndex(rec.Prefix)
		}
		s.AddRowBits(row, t, bits)
	})
}

// CollectStats counts record attribution outcomes of a Collect run.
type CollectStats struct {
	// Records is the number of records drained from the source.
	Records uint64
	// Routed counts records that landed at least partly in the window.
	Routed uint64
	// OutOfRange counts records entirely outside the series window.
	OutOfRange uint64
}

// Collect drains src into s — the batch reference the streaming path is
// defined (and tested) against. The whole source is materialised into
// the flow-by-interval matrix before anything is classified; use
// engine.RunStreaming (a StreamAccumulator per link) when memory must
// stay bounded by the window instead of the trace length.
func Collect(src RecordSource, s *Series) (CollectStats, error) {
	var st CollectStats
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return st, nil
		}
		if err != nil {
			return st, err
		}
		st.Records++
		if s.AddRecord(rec) {
			st.Routed++
		} else {
			st.OutOfRange++
		}
	}
}
