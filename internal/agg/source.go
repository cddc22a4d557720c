package agg

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bgp"
	"repro/internal/packet"
	"repro/internal/pcap"
)

// PcapPacketSource streams decoded packet summaries from an Ethernet
// capture — classic libpcap or pcapng, auto-detected — skipping frames
// that fail to decode (counted in Parser stats). It is the
// capture-to-summary step by itself, for consumers that want packets
// rather than prefix records — the NetFlow exporter's flow cache.
type PcapPacketSource struct {
	r      pcap.PacketReader
	parser *packet.Parser
}

// NewPcapPacketSource opens a capture for streaming, sniffing the
// format.
func NewPcapPacketSource(r io.Reader) (*PcapPacketSource, error) {
	pr, linkType, err := pcap.OpenReader(r)
	if err != nil {
		return nil, fmt.Errorf("agg: opening capture: %w", err)
	}
	if linkType != pcap.LinkTypeEthernet {
		return nil, fmt.Errorf("agg: unsupported link type %d", linkType)
	}
	return &PcapPacketSource{r: pr, parser: packet.NewParser()}, nil
}

// ParserStats exposes decode counters.
func (s *PcapPacketSource) ParserStats() packet.ParserStats { return s.parser.Stats }

// Next returns the next decodable packet's capture time and summary.
// The summary's WireLength is the original on-the-wire length even for
// snapped captures. io.EOF marks a clean end of file.
func (s *PcapPacketSource) Next() (time.Time, packet.Summary, error) {
	for {
		ci, data, err := s.r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return time.Time{}, packet.Summary{}, io.EOF
		}
		if err != nil {
			return time.Time{}, packet.Summary{}, fmt.Errorf("agg: reading capture: %w", err)
		}
		sum, err := s.parser.Parse(data)
		if err != nil {
			continue // non-IP or malformed frame
		}
		sum.WireLength = ci.Length
		return ci.Timestamp, sum, nil
	}
}

// PacketRecordSourceStats counts packet attribution outcomes.
type PacketRecordSourceStats struct {
	Packets  uint64 // decodable packets presented
	Routed   uint64 // attributed to a prefix and yielded
	Unrouted uint64 // no covering route (skipped, as in the paper)
}

// PacketRecordSource adapts the pcap→packet path to the unified
// RecordSource API: each decodable packet is longest-prefix matched
// against the BGP table and yielded as a point Record carrying its wire
// length in bits. Packets destined to unrouted space are counted and
// skipped. Capture timestamps are monotone in practice, so any
// StreamAccumulator window suffices.
type PacketRecordSource struct {
	src   *PcapPacketSource
	table *bgp.Table

	// Stats counts attribution outcomes.
	Stats PacketRecordSourceStats
}

// NewPacketRecordSource opens a capture for streaming record
// attribution against table.
func NewPacketRecordSource(r io.Reader, table *bgp.Table) (*PacketRecordSource, error) {
	src, err := NewPcapPacketSource(r)
	if err != nil {
		return nil, err
	}
	return &PacketRecordSource{src: src, table: table}, nil
}

// ParserStats exposes the underlying decode counters.
func (s *PacketRecordSource) ParserStats() packet.ParserStats { return s.src.ParserStats() }

// Next returns the next routed packet as a point record. io.EOF marks a
// clean end of file.
func (s *PacketRecordSource) Next() (Record, error) {
	for {
		ts, sum, err := s.src.Next()
		if err != nil {
			return Record{}, err
		}
		s.Stats.Packets++
		prefix, ok := s.table.LookupPrefix(sum.DstIP)
		if !ok {
			s.Stats.Unrouted++
			continue
		}
		s.Stats.Routed++
		return Record{Prefix: prefix, Time: ts, Bits: float64(sum.WireLength) * 8}, nil
	}
}
