package packet

import (
	"encoding/binary"
	"net/netip"
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 is an IPv4 header. Options are exposed as a raw byte slice.
type IPv4 struct {
	Version    uint8 // always 4 after a successful decode
	IHL        uint8 // header length in 32-bit words
	TOS        uint8
	Length     uint16 // total length including header
	ID         uint16
	Flags      uint8  // 3-bit flags field
	FragOffset uint16 // 13-bit fragment offset, in 8-byte units
	TTL        uint8
	Protocol   uint8
	Checksum   uint16
	SrcIP      netip.Addr
	DstIP      netip.Addr
	Options    []byte
	payload    []byte
}

// IPv4 flag bits.
const (
	IPv4EvilBit       uint8 = 1 << 2 // reserved, RFC 3514 ;-)
	IPv4DontFragment  uint8 = 1 << 1
	IPv4MoreFragments uint8 = 1 << 0
)

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// DecodeFromBytes implements Layer.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return truncated(LayerTypeIPv4, len(data), IPv4HeaderLen)
	}
	ip.Version = data[0] >> 4
	if ip.Version != 4 {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: "version field is not 4"}
	}
	ip.IHL = data[0] & 0x0F
	hlen := int(ip.IHL) * 4
	if hlen < IPv4HeaderLen {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: "IHL below minimum header length"}
	}
	if len(data) < hlen {
		return truncated(LayerTypeIPv4, len(data), hlen)
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1FFF
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.SrcIP = netip.AddrFrom4([4]byte(data[12:16]))
	ip.DstIP = netip.AddrFrom4([4]byte(data[16:20]))
	ip.Options = data[IPv4HeaderLen:hlen]
	if int(ip.Length) < hlen {
		return &DecodeError{Layer: LayerTypeIPv4, Reason: "total length below header length"}
	}
	end := int(ip.Length)
	if end > len(data) {
		// Captured slice shorter than declared datagram (snap length);
		// expose what we have.
		end = len(data)
	}
	ip.payload = data[hlen:end]
	return nil
}

// NextLayerType implements Layer. Fragments with a non-zero offset carry
// no decodable transport header, so they map to LayerTypePayload.
func (ip *IPv4) NextLayerType() LayerType {
	if ip.FragOffset != 0 {
		return LayerTypePayload
	}
	return ipProtoNext(ip.Protocol)
}

// LayerPayload implements Layer.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// AppendTo serializes the header (recomputing IHL, Length if zero, and
// Checksum) and appends it to b. payloadLen is the number of payload bytes
// that will follow; it is used to fill the Length field when ip.Length is
// zero.
func (ip *IPv4) AppendTo(b []byte, payloadLen int) []byte {
	hlen := IPv4HeaderLen + len(ip.Options)
	if r := hlen % 4; r != 0 {
		hlen += 4 - r // options are padded to a 32-bit boundary
	}
	length := ip.Length
	if length == 0 {
		length = uint16(hlen + payloadLen)
	}
	start := len(b)
	b = append(b, 4<<4|uint8(hlen/4), ip.TOS)
	b = binary.BigEndian.AppendUint16(b, length)
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags)<<13|ip.FragOffset&0x1FFF)
	b = append(b, ip.TTL, ip.Protocol, 0, 0) // checksum zeroed for computation
	src, dst := ip.SrcIP.As4(), ip.DstIP.As4()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	b = append(b, ip.Options...)
	for len(b)-start < hlen {
		b = append(b, 0)
	}
	cs := ipChecksum(b[start : start+hlen])
	binary.BigEndian.PutUint16(b[start+10:start+12], cs)
	return b
}
