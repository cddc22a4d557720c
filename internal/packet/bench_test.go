package packet

import (
	"net/netip"
	"testing"
)

func benchFrame(b *testing.B, spec FrameSpec) []byte {
	b.Helper()
	frame, err := NewBuilder().Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, len(frame))
	copy(out, frame)
	return out
}

func BenchmarkParseIPv4TCP(b *testing.B) {
	frame := benchFrame(b, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4,
		Protocol: IPProtocolTCP, SrcPort: 1234, DstPort: 80, PayloadLen: 512,
	})
	p := NewParser()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseIPv6UDPVLAN(b *testing.B) {
	frame := benchFrame(b, FrameSpec{
		SrcIP: srcV6, DstIP: dstV6, VLAN: 100,
		Protocol: IPProtocolUDP, SrcPort: 53, DstPort: 53, PayloadLen: 256,
	})
	p := NewParser()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildIPv4TCP(b *testing.B) {
	bld := NewBuilder()
	spec := FrameSpec{
		SrcIP: srcV4, DstIP: dstV4,
		Protocol: IPProtocolTCP, SrcPort: 1234, DstPort: 80, PayloadLen: 512,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksumValidate(b *testing.B) {
	frame := benchFrame(b, FrameSpec{
		SrcIP: netip.MustParseAddr("192.0.2.1"), DstIP: netip.MustParseAddr("198.51.100.1"),
		Protocol: IPProtocolTCP,
	})
	hdr := frame[ethernetLen : ethernetLen+ipv4Len]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ValidIPv4Checksum(hdr) {
			b.Fatal("checksum")
		}
	}
}
