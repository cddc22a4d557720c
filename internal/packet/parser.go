package packet

import (
	"errors"
	"net/netip"
)

// ErrNoIPLayer is returned by Parser.Parse for frames that carry no IPv4
// or IPv6 datagram (e.g. ARP, LLDP).
var ErrNoIPLayer = errors.New("packet: frame carries no IP layer")

// Summary captures the fields of a decoded packet that the measurement
// pipeline consumes. It is a plain value: safe to copy, usable as a
// struct field, with no aliasing into the packet buffer.
type Summary struct {
	SrcIP, DstIP     netip.Addr
	Protocol         uint8  // IP protocol number
	SrcPort, DstPort uint16 // zero unless TCP or UDP
	IPLength         int    // network-layer datagram length in bytes
	WireLength       int    // full frame length in bytes
	VLAN             uint16 // 802.1Q VLAN ID, zero if untagged
	IsIPv6           bool
	TransportOK      bool // transport header successfully decoded
}

// Parser decodes Ethernet frames into Summary values with zero
// steady-state allocation. A Parser is not safe for concurrent use; use
// one per goroutine.
type Parser struct {
	eth   Ethernet
	dot1q Dot1Q
	ip4   IPv4
	ip6   IPv6
	tcp   TCP
	udp   UDP

	// Stats counts decode outcomes across the Parser's lifetime.
	Stats ParserStats
}

// ParserStats counts decode outcomes.
type ParserStats struct {
	Frames      uint64 // frames presented to Parse
	IPv4Packets uint64
	IPv6Packets uint64
	NonIP       uint64 // frames without an IP layer
	Errors      uint64 // frames that failed to decode
}

// NewParser returns a ready-to-use Parser.
func NewParser() *Parser { return &Parser{} }

// Parse decodes one Ethernet frame. On success the returned Summary is
// fully populated. Frames without an IP layer return ErrNoIPLayer.
func (p *Parser) Parse(frame []byte) (Summary, error) {
	p.Stats.Frames++
	var s Summary
	s.WireLength = len(frame)
	if err := p.eth.DecodeFromBytes(frame); err != nil {
		p.Stats.Errors++
		return s, err
	}
	next := p.eth.NextLayerType()
	payload := p.eth.LayerPayload()
	if next == LayerTypeDot1Q {
		if err := p.dot1q.DecodeFromBytes(payload); err != nil {
			p.Stats.Errors++
			return s, err
		}
		s.VLAN = p.dot1q.VLAN
		next = p.dot1q.NextLayerType()
		payload = p.dot1q.LayerPayload()
	}
	switch next {
	case LayerTypeIPv4:
		if err := p.ip4.DecodeFromBytes(payload); err != nil {
			p.Stats.Errors++
			return s, err
		}
		p.Stats.IPv4Packets++
		s.SrcIP, s.DstIP = p.ip4.SrcIP, p.ip4.DstIP
		s.Protocol = p.ip4.Protocol
		s.IPLength = int(p.ip4.Length)
		next = p.ip4.NextLayerType()
		payload = p.ip4.LayerPayload()
	case LayerTypeIPv6:
		if err := p.ip6.DecodeFromBytes(payload); err != nil {
			p.Stats.Errors++
			return s, err
		}
		p.Stats.IPv6Packets++
		s.IsIPv6 = true
		s.SrcIP, s.DstIP = p.ip6.SrcIP, p.ip6.DstIP
		s.Protocol = p.ip6.NextHeader
		s.IPLength = IPv6HeaderLen + int(p.ip6.Length)
		next = p.ip6.NextLayerType()
		payload = p.ip6.LayerPayload()
	default:
		p.Stats.NonIP++
		return s, ErrNoIPLayer
	}
	switch next {
	case LayerTypeTCP:
		if err := p.tcp.DecodeFromBytes(payload); err == nil {
			s.SrcPort, s.DstPort = p.tcp.SrcPort, p.tcp.DstPort
			s.TransportOK = true
		}
	case LayerTypeUDP:
		if err := p.udp.DecodeFromBytes(payload); err == nil {
			s.SrcPort, s.DstPort = p.udp.SrcPort, p.udp.DstPort
			s.TransportOK = true
		}
	}
	return s, nil
}
