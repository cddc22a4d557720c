package netflow

import (
	"net/netip"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
)

// Attribute longest-prefix matches one v5 record and normalises it to
// the unified agg.Record form (a point record for degenerate spans),
// reporting false for unrouted destinations. It is the form for a caller
// that holds one record at a time; AttributeDatagram resolves a whole
// datagram's destinations together. Both build the record with the same
// fillRecord from what the table answers for the destination, so every
// ingest path classifies identical traffic identically.
func Attribute(table *bgp.Table, h Header, r Record) (agg.Record, bool) {
	var rec agg.Record
	ok := attributeInto(table, &h, &r, &rec)
	return rec, ok
}

// attributeInto is Attribute by reference, which keeps Attribute itself
// small enough to inline into its caller's loop: an unrouted record
// leaves dst untouched.
func attributeInto(table *bgp.Table, h *Header, r *Record, dst *agg.Record) bool {
	prefix, key, ok := table.LookupKey(r.DstAddr)
	if ok {
		fillRecord(dst, h, r, prefix, key)
	}
	return ok
}

// attributeChunk is how many destinations AttributeDatagram hands the
// table at once: a full v5 datagram (30 records) rounded up to a power
// of two.
const attributeChunk = 32

// AttributeDatagram attributes every record of d in order, appending
// the routed ones to dst and counting the rest. The destinations are
// looked up a chunk at a time (bgp.Table.LookupKeys, which overlaps the
// chunk's cache misses) and each routed record is then built by
// fillRecord, as Attribute builds one. Routed records are written in
// place into dst's spare capacity — a caller that passes the previous
// call's result re-sliced to [:0] (a reader's per-datagram scratch)
// allocates nothing once dst has held a full datagram — and an unrouted
// record takes no slot.
func AttributeDatagram(table *bgp.Table, d *Datagram, dst []agg.Record) (recs []agg.Record, unrouted int) {
	n := len(dst)
	dst = slices.Grow(dst, len(d.Records))[:n+len(d.Records)]
	var (
		addrs    [attributeChunk]netip.Addr
		prefixes [attributeChunk]netip.Prefix
		keys     [attributeChunk]uint32
	)
	for rest := d.Records; len(rest) > 0; {
		chunk := rest[:min(len(rest), attributeChunk)]
		rest = rest[len(chunk):]
		for i := range chunk {
			addrs[i] = chunk[i].DstAddr
		}
		table.LookupKeys(addrs[:len(chunk)], prefixes[:], keys[:])
		for i := range chunk {
			if keys[i] == 0 {
				unrouted++
				continue
			}
			fillRecord(&dst[n], &d.Header, &chunk[i], prefixes[i], keys[i])
			n++
		}
	}
	return dst[:n], unrouted
}

// fillRecord is the one body that builds a flow record: r of a datagram
// headed h, whose destination the table answered with prefix and key. It
// overwrites every field of dst — dst is a reused slot, so a field left
// alone would keep the previous occupant's value.
func fillRecord(dst *agg.Record, h *Header, r *Record, prefix netip.Prefix, key uint32) {
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
}
