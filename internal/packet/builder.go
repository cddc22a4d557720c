package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// MACAddr is a 48-bit Ethernet hardware address.
type MACAddr [6]byte

// FrameSpec describes one frame to build.
type FrameSpec struct {
	SrcMAC, DstMAC   MACAddr
	VLAN             uint16 // if non-zero, insert an 802.1Q tag
	SrcIP, DstIP     netip.Addr
	Protocol         uint8 // IPProtocolTCP or IPProtocolUDP
	SrcPort, DstPort uint16
	PayloadLen       int    // application payload bytes (zero-filled)
	Seq              uint32 // TCP sequence number; its low 16 bits are the IPv4 ID
}

// Fixed header fields of every built frame.
const (
	buildTTL    = 64     // IPv4 TTL, IPv6 hop limit
	buildWindow = 0xFFFF // TCP window; no TCP flag is set
)

// Builder assembles complete Ethernet/IP/transport frames. It reuses an
// internal buffer across Build calls, so the returned slice is valid only
// until the next call; callers that retain frames must copy them.
type Builder struct {
	buf []byte
}

// NewBuilder returns a Builder with capacity for typical frames.
func NewBuilder() *Builder {
	return &Builder{buf: make([]byte, 0, 2048)}
}

// Build serializes the frame described by spec: Ethernet, the 802.1Q tag
// if spec.VLAN is set, an option-less IPv4 or IPv6 header, an option-less
// TCP or UDP header with its pseudo-header checksum, and the payload. Both
// addresses must be the same IP family.
func (b *Builder) Build(spec FrameSpec) ([]byte, error) {
	if !spec.SrcIP.IsValid() || !spec.DstIP.IsValid() {
		return nil, fmt.Errorf("packet: builder: invalid IP address")
	}
	if spec.SrcIP.Is4() != spec.DstIP.Is4() {
		return nil, fmt.Errorf("packet: builder: mixed address families %s -> %s", spec.SrcIP, spec.DstIP)
	}
	var thlen int
	switch spec.Protocol {
	case IPProtocolTCP:
		thlen = tcpLen
	case IPProtocolUDP:
		thlen = udpLen
	default:
		return nil, fmt.Errorf("packet: builder: unsupported protocol %d", spec.Protocol)
	}
	be := binary.BigEndian

	out := append(b.buf[:0], spec.DstMAC[:]...)
	out = append(out, spec.SrcMAC[:]...)
	if spec.VLAN != 0 {
		out = be.AppendUint16(out, etherTypeDot1Q)
		out = be.AppendUint16(out, spec.VLAN&0x0FFF) // priority 0, DEI clear
	}
	if spec.SrcIP.Is4() {
		out = be.AppendUint16(out, etherTypeIPv4)
		ip := len(out)
		out = append(out, 4<<4|ipv4Len/4, 0) // version, IHL, TOS
		out = be.AppendUint16(out, uint16(ipv4Len+thlen+spec.PayloadLen))
		out = be.AppendUint16(out, uint16(spec.Seq))
		out = append(out, 0, 0, buildTTL, spec.Protocol, 0, 0) // no fragmentation; checksum below
		src, dst := spec.SrcIP.As4(), spec.DstIP.As4()
		out = append(out, src[:]...)
		out = append(out, dst[:]...)
		be.PutUint16(out[ip+10:], foldChecksum(addChecksum(0, out[ip:])))
	} else {
		out = be.AppendUint16(out, etherTypeIPv6)
		out = be.AppendUint32(out, 6<<28) // version; traffic class and flow label zero
		out = be.AppendUint16(out, uint16(thlen+spec.PayloadLen))
		out = append(out, spec.Protocol, buildTTL)
		src, dst := spec.SrcIP.As16(), spec.DstIP.As16()
		out = append(out, src[:]...)
		out = append(out, dst[:]...)
	}

	th, csum := len(out), 0
	out = be.AppendUint16(out, spec.SrcPort)
	out = be.AppendUint16(out, spec.DstPort)
	var sum uint32
	if spec.Protocol == IPProtocolTCP {
		out = be.AppendUint32(out, spec.Seq)
		out = append(out, 0, 0, 0, 0, tcpLen/4<<4, 0) // ack, data offset, flags
		out = be.AppendUint16(out, buildWindow)
		csum = len(out)
		out = append(out, 0, 0, 0, 0) // checksum below, urgent pointer
		sum = pseudoHeaderChecksum(spec.SrcIP, spec.DstIP, IPProtocolTCP, uint32(tcpLen+spec.PayloadLen))
	} else {
		length := uint16(udpLen + spec.PayloadLen)
		out = be.AppendUint16(out, length)
		csum = len(out)
		out = append(out, 0, 0) // checksum below
		sum = pseudoHeaderChecksum(spec.SrcIP, spec.DstIP, IPProtocolUDP, uint32(length))
	}
	// The payload is all zeros, so it adds nothing to the checksum.
	cs := foldChecksum(addChecksum(sum, out[th:]))
	if cs == 0 && spec.Protocol == IPProtocolUDP {
		cs = 0xFFFF // UDP transmits all-ones for a computed zero checksum
	}
	be.PutUint16(out[csum:], cs)
	out = append(out, make([]byte, spec.PayloadLen)...)
	b.buf = out
	return out, nil
}

// addChecksum accumulates data into the ones-complement sum acc. Data of
// odd length is padded with a virtual zero byte, matching RFC 1071.
func addChecksum(acc uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		acc += uint32(data[n-1]) << 8
	}
	return acc
}

// foldChecksum folds the 32-bit accumulator into the final 16-bit
// ones-complement checksum.
func foldChecksum(acc uint32) uint16 {
	for acc > 0xFFFF {
		acc = acc>>16 + acc&0xFFFF
	}
	return ^uint16(acc)
}

// pseudoHeaderChecksum starts a transport checksum with the IPv4 or IPv6
// pseudo-header for the given addresses, protocol and transport length.
func pseudoHeaderChecksum(src, dst netip.Addr, proto uint8, length uint32) uint32 {
	var acc uint32
	if src.Is4() {
		s, d := src.As4(), dst.As4()
		acc = addChecksum(acc, s[:])
		acc = addChecksum(acc, d[:])
	} else {
		s, d := src.As16(), dst.As16()
		acc = addChecksum(acc, s[:])
		acc = addChecksum(acc, d[:])
	}
	acc += uint32(proto)
	acc += length & 0xFFFF
	acc += length >> 16
	return acc
}
