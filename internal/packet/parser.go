// Package packet decodes and builds the Ethernet frames the capture edge
// carries: Ethernet II, an optional 802.1Q tag, IPv4 or IPv6, and TCP or
// UDP.
//
// It is one decoder and one builder, each a single function over the byte
// slice. Parser.Parse walks a frame and keeps the six fields the
// measurement pipeline reads (addresses, protocol, ports, wire length);
// Builder.Build appends the headers of one synthetic frame, which the trace
// generator writes and the pipeline decodes back, exercising the path a
// live capture takes. Earlier the package decoded each header into its own
// struct behind a gopacket-style layer interface; those structs filled
// some thirty fields nothing read, so they went, and the checks they made
// moved into the decoder unchanged, in the same order.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers the decoder reads ports for and the builder emits.
const (
	IPProtocolTCP uint8 = 6
	IPProtocolUDP uint8 = 17
)

// Header lengths and EtherTypes of the supported stack.
const (
	ethernetLen = 14
	dot1QLen    = 4
	ipv4Len     = 20 // without options
	ipv6Len     = 40
	tcpLen      = 20 // without options
	udpLen      = 8

	etherTypeIPv4  uint16 = 0x0800
	etherTypeDot1Q uint16 = 0x8100
	etherTypeIPv6  uint16 = 0x86DD
)

// ErrNoIPLayer is returned by Parser.Parse for frames that carry no IPv4
// or IPv6 datagram (e.g. ARP, LLDP).
var ErrNoIPLayer = errors.New("packet: frame carries no IP layer")

var (
	errIPv4Version = errors.New("packet: IPv4: version field is not 4")
	errIPv4IHL     = errors.New("packet: IPv4: IHL below minimum header length")
	errIPv4Length  = errors.New("packet: IPv4: total length below header length")
	errIPv6Version = errors.New("packet: IPv6: version field is not 6")
)

func truncated(layer string, have, want int) error {
	return fmt.Errorf("packet: %s: truncated header (have %d bytes, want %d)", layer, have, want)
}

// Summary captures the fields of a decoded packet that the measurement
// pipeline consumes. It is a plain value: safe to copy, usable as a
// struct field, with no aliasing into the packet buffer.
type Summary struct {
	SrcIP, DstIP     netip.Addr
	Protocol         uint8  // IP protocol number
	SrcPort, DstPort uint16 // zero unless a whole TCP or UDP header was read
	WireLength       int    // full frame length in bytes
}

// Parser decodes Ethernet frames into Summary values without allocating
// on success. A Parser is not safe for concurrent use; use one per
// goroutine.
type Parser struct {
	// Stats counts decode outcomes across the Parser's lifetime.
	Stats ParserStats
}

// ParserStats counts decode outcomes.
type ParserStats struct {
	Frames uint64 // frames presented to Parse
	NonIP  uint64 // frames without an IP layer
	Errors uint64 // frames that failed to decode
}

// NewParser returns a ready-to-use Parser.
func NewParser() *Parser { return &Parser{} }

// Parse decodes one Ethernet frame. On success the returned Summary is
// fully populated; on failure only WireLength is set. Frames without an IP
// layer return ErrNoIPLayer.
//
// A malformed Ethernet, 802.1Q or IP header is an error. A malformed
// transport header is not: the frame still counts, with zero ports, as do
// IPv4 fragments past the first. IP payloads are clipped to the length the
// header declares; IPv6 extension headers are not walked.
func (p *Parser) Parse(frame []byte) (Summary, error) {
	p.Stats.Frames++
	s, err := parse(frame)
	switch {
	case err == ErrNoIPLayer:
		p.Stats.NonIP++
	case err != nil:
		p.Stats.Errors++
	}
	return s, err
}

func parse(frame []byte) (Summary, error) {
	be := binary.BigEndian
	s := Summary{WireLength: len(frame)}
	if len(frame) < ethernetLen {
		return s, truncated("Ethernet", len(frame), ethernetLen)
	}
	etherType := be.Uint16(frame[12:14])
	data := frame[ethernetLen:]
	if etherType == etherTypeDot1Q {
		if len(data) < dot1QLen {
			return s, truncated("Dot1Q", len(data), dot1QLen)
		}
		etherType = be.Uint16(data[2:4])
		data = data[dot1QLen:]
	}

	var transport []byte
	switch etherType {
	case etherTypeIPv4:
		if len(data) < ipv4Len {
			return s, truncated("IPv4", len(data), ipv4Len)
		}
		if data[0]>>4 != 4 {
			return s, errIPv4Version
		}
		hlen := int(data[0]&0x0F) * 4
		if hlen < ipv4Len {
			return s, errIPv4IHL
		}
		if len(data) < hlen {
			return s, truncated("IPv4", len(data), hlen)
		}
		end := int(be.Uint16(data[2:4]))
		if end < hlen {
			return s, errIPv4Length
		}
		s.SrcIP = netip.AddrFrom4([4]byte(data[12:16]))
		s.DstIP = netip.AddrFrom4([4]byte(data[16:20]))
		s.Protocol = data[9]
		if be.Uint16(data[6:8])&0x1FFF != 0 {
			return s, nil // a later fragment carries no transport header
		}
		transport = data[hlen:min(end, len(data))]
	case etherTypeIPv6:
		if len(data) < ipv6Len {
			return s, truncated("IPv6", len(data), ipv6Len)
		}
		if data[0]>>4 != 6 {
			return s, errIPv6Version
		}
		s.SrcIP = netip.AddrFrom16([16]byte(data[8:24]))
		s.DstIP = netip.AddrFrom16([16]byte(data[24:40]))
		s.Protocol = data[6]
		transport = data[ipv6Len:min(ipv6Len+int(be.Uint16(data[4:6])), len(data))]
	default:
		return s, ErrNoIPLayer
	}

	var whole bool // a whole TCP or UDP header, by its own length fields
	switch s.Protocol {
	case IPProtocolTCP:
		whole = len(transport) >= tcpLen &&
			int(transport[12]>>4)*4 >= tcpLen && len(transport) >= int(transport[12]>>4)*4
	case IPProtocolUDP:
		whole = len(transport) >= udpLen && be.Uint16(transport[4:6]) >= udpLen
	}
	if whole {
		s.SrcPort, s.DstPort = be.Uint16(transport[0:2]), be.Uint16(transport[2:4])
	}
	return s, nil
}
