// Package netflow implements NetFlow version 5 — the flow-record export
// format that carried backbone measurement in the paper's era — as an
// alternative ingest path for the classification pipeline: instead of
// decoding raw packets from a capture, an operator can feed exported
// flow records straight into the per-prefix bandwidth series.
//
// The package provides the v5 wire format (datagram encoder/decoder), a
// flow-cache Exporter that turns a packet stream into records with
// active/inactive timeout semantics, and the bridge to the unified
// record stream: Attribute and AttributeDatagram turn v5 records into
// agg.Records, and RecordSource yields a framed export as an
// agg.RecordSource for agg.Collect or engine.RunStreaming to drain.
package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// ErrCountMismatch reports a datagram whose header record count
// disagrees with the payload length — a truncated export, a corrupted
// count field, or trailing garbage after the last record. Decode wraps
// it with the observed sizes; match with errors.Is. A collector should
// drop the whole datagram (record boundaries cannot be trusted) and
// count it as a decode error rather than guessing.
var ErrCountMismatch = errors.New("netflow: header count disagrees with payload length")

// Version is the only NetFlow version this package speaks.
const Version = 5

// Wire sizes of the v5 format.
const (
	HeaderLen = 24
	RecordLen = 48
	// MaxRecordsPerDatagram is the v5 limit (30 records ≈ 1464 bytes,
	// under a 1500-byte MTU).
	MaxRecordsPerDatagram = 30
)

// Header is a NetFlow v5 datagram header.
type Header struct {
	// Count is the number of records in the datagram (1..30).
	Count uint16
	// SysUptime is the exporter uptime in milliseconds.
	SysUptime uint32
	// UnixSecs and UnixNsecs give the exporter's wall clock.
	UnixSecs  uint32
	UnixNsecs uint32
	// FlowSequence is the cumulative count of exported flows.
	FlowSequence uint32
	// EngineType and EngineID identify the exporting slot.
	EngineType, EngineID uint8
	// SamplingInterval carries the sampling mode and rate (v5 packs
	// a 2-bit mode and 14-bit rate; stored raw here).
	SamplingInterval uint16
}

// Record is one NetFlow v5 flow record.
type Record struct {
	SrcAddr, DstAddr  netip.Addr // IPv4 only in v5
	NextHop           netip.Addr
	InputIf, OutputIf uint16
	Packets, Octets   uint32
	// First and Last are SysUptime values (ms) at the first and last
	// packet of the flow.
	First, Last      uint32
	SrcPort, DstPort uint16
	TCPFlags         uint8
	Proto            uint8
	TOS              uint8
	SrcAS, DstAS     uint16
	SrcMask, DstMask uint8
}

// Datagram couples a header with its records.
type Datagram struct {
	Header  Header
	Records []Record
}

// Encode serializes the datagram in network byte order. It validates the
// record count against the header and the v5 limit.
func (d *Datagram) Encode(buf []byte) ([]byte, error) {
	if len(d.Records) == 0 || len(d.Records) > MaxRecordsPerDatagram {
		return nil, fmt.Errorf("netflow: %d records per datagram (want 1..%d)", len(d.Records), MaxRecordsPerDatagram)
	}
	if int(d.Header.Count) != len(d.Records) {
		return nil, fmt.Errorf("netflow: header count %d != %d records", d.Header.Count, len(d.Records))
	}
	buf = buf[:0]
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.BigEndian.AppendUint16(buf, d.Header.Count)
	buf = binary.BigEndian.AppendUint32(buf, d.Header.SysUptime)
	buf = binary.BigEndian.AppendUint32(buf, d.Header.UnixSecs)
	buf = binary.BigEndian.AppendUint32(buf, d.Header.UnixNsecs)
	buf = binary.BigEndian.AppendUint32(buf, d.Header.FlowSequence)
	buf = append(buf, d.Header.EngineType, d.Header.EngineID)
	buf = binary.BigEndian.AppendUint16(buf, d.Header.SamplingInterval)
	for i := range d.Records {
		r := &d.Records[i]
		if !r.SrcAddr.Is4() || !r.DstAddr.Is4() {
			return nil, fmt.Errorf("netflow: record %d: v5 carries IPv4 only", i)
		}
		src, dst := r.SrcAddr.As4(), r.DstAddr.As4()
		var hop [4]byte
		if r.NextHop.Is4() {
			hop = r.NextHop.As4()
		}
		buf = append(buf, src[:]...)
		buf = append(buf, dst[:]...)
		buf = append(buf, hop[:]...)
		buf = binary.BigEndian.AppendUint16(buf, r.InputIf)
		buf = binary.BigEndian.AppendUint16(buf, r.OutputIf)
		buf = binary.BigEndian.AppendUint32(buf, r.Packets)
		buf = binary.BigEndian.AppendUint32(buf, r.Octets)
		buf = binary.BigEndian.AppendUint32(buf, r.First)
		buf = binary.BigEndian.AppendUint32(buf, r.Last)
		buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
		buf = append(buf, 0) // pad1
		buf = append(buf, r.TCPFlags, r.Proto, r.TOS)
		buf = binary.BigEndian.AppendUint16(buf, r.SrcAS)
		buf = binary.BigEndian.AppendUint16(buf, r.DstAS)
		buf = append(buf, r.SrcMask, r.DstMask)
		buf = append(buf, 0, 0) // pad2
	}
	return buf, nil
}

// Decode parses one v5 datagram. The returned Datagram does not alias
// data.
func Decode(data []byte) (*Datagram, error) {
	var d Datagram
	if err := DecodeInto(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// DecodeInto parses one v5 datagram into d, reusing d.Records' capacity
// so a caller decoding a socket's datagrams one after another (the
// daemon's ingest readers) allocates nothing in steady state. On error d
// is left in an unspecified state; on success d.Records does not alias
// data. The fast path of Decode.
func DecodeInto(data []byte, d *Datagram) error {
	if len(data) < HeaderLen {
		return fmt.Errorf("netflow: datagram of %d bytes shorter than header", len(data))
	}
	if v := binary.BigEndian.Uint16(data[0:2]); v != Version {
		return fmt.Errorf("netflow: version %d, want %d", v, Version)
	}
	d.Header.Count = binary.BigEndian.Uint16(data[2:4])
	d.Header.SysUptime = binary.BigEndian.Uint32(data[4:8])
	d.Header.UnixSecs = binary.BigEndian.Uint32(data[8:12])
	d.Header.UnixNsecs = binary.BigEndian.Uint32(data[12:16])
	d.Header.FlowSequence = binary.BigEndian.Uint32(data[16:20])
	d.Header.EngineType = data[20]
	d.Header.EngineID = data[21]
	d.Header.SamplingInterval = binary.BigEndian.Uint16(data[22:24])
	n := int(d.Header.Count)
	if n == 0 || n > MaxRecordsPerDatagram {
		return fmt.Errorf("netflow: record count %d out of range", n)
	}
	if want := HeaderLen + n*RecordLen; len(data) != want {
		return fmt.Errorf("%w: %d bytes for %d records, want %d", ErrCountMismatch, len(data), n, want)
	}
	if cap(d.Records) < n {
		d.Records = make([]Record, n)
	} else {
		d.Records = d.Records[:n]
	}
	for i := 0; i < n; i++ {
		b := data[HeaderLen+i*RecordLen:]
		r := &d.Records[i]
		r.SrcAddr = netip.AddrFrom4([4]byte(b[0:4]))
		r.DstAddr = netip.AddrFrom4([4]byte(b[4:8]))
		r.NextHop = netip.AddrFrom4([4]byte(b[8:12]))
		r.InputIf = binary.BigEndian.Uint16(b[12:14])
		r.OutputIf = binary.BigEndian.Uint16(b[14:16])
		r.Packets = binary.BigEndian.Uint32(b[16:20])
		r.Octets = binary.BigEndian.Uint32(b[20:24])
		r.First = binary.BigEndian.Uint32(b[24:28])
		r.Last = binary.BigEndian.Uint32(b[28:32])
		r.SrcPort = binary.BigEndian.Uint16(b[32:34])
		r.DstPort = binary.BigEndian.Uint16(b[34:36])
		r.TCPFlags = b[37]
		r.Proto = b[38]
		r.TOS = b[39]
		r.SrcAS = binary.BigEndian.Uint16(b[40:42])
		r.DstAS = binary.BigEndian.Uint16(b[42:44])
		r.SrcMask = b[44]
		r.DstMask = b[45]
	}
	return nil
}

// Timestamps converts the record's uptime-relative First/Last into wall
// times using the datagram header's (SysUptime, UnixSecs, UnixNsecs)
// anchor.
func (h Header) Timestamps(r Record) (first, last time.Time) {
	return h.wallTime(r.First), h.wallTime(r.Last)
}

// wallTime places an uptime reading (milliseconds since the exporter
// booted) on the wall clock. The whole offset goes into time.Unix's
// nanosecond argument, which normalises any sign and size: one
// constructor in place of a chain of Time.Add calls on the record path.
func (h *Header) wallTime(uptimeMillis uint32) time.Time {
	sinceHeader := (int64(uptimeMillis) - int64(h.SysUptime)) * int64(time.Millisecond)
	return time.Unix(int64(h.UnixSecs), int64(h.UnixNsecs)+sinceHeader)
}
