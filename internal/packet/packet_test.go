package packet

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

var (
	srcMAC = MACAddr{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	dstMAC = MACAddr{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	srcV4  = netip.MustParseAddr("192.0.2.1")
	dstV4  = netip.MustParseAddr("198.51.100.7")
	srcV6  = netip.MustParseAddr("2001:db8::1")
	dstV6  = netip.MustParseAddr("2001:db8::2")
)

func buildFrame(t *testing.T, spec FrameSpec) []byte {
	t.Helper()
	b := NewBuilder()
	frame, err := b.Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	out := make([]byte, len(frame))
	copy(out, frame)
	return out
}

func TestRoundtripIPv4TCP(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP: srcV4, DstIP: dstV4,
		Protocol: IPProtocolTCP, SrcPort: 12345, DstPort: 80,
		PayloadLen: 100, Seq: 777,
	})
	p := NewParser()
	sum, err := p.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SrcIP != srcV4 || sum.DstIP != dstV4 {
		t.Errorf("IPs = %v -> %v", sum.SrcIP, sum.DstIP)
	}
	if sum.Protocol != IPProtocolTCP || sum.SrcPort != 12345 || sum.DstPort != 80 {
		t.Errorf("transport = proto %d %d->%d", sum.Protocol, sum.SrcPort, sum.DstPort)
	}
	if !sum.TransportOK || sum.IsIPv6 || sum.VLAN != 0 {
		t.Errorf("flags: %+v", sum)
	}
	if sum.WireLength != len(frame) {
		t.Errorf("WireLength = %d, want %d", sum.WireLength, len(frame))
	}
	wantIP := IPv4HeaderLen + TCPHeaderLen + 100
	if sum.IPLength != wantIP {
		t.Errorf("IPLength = %d, want %d", sum.IPLength, wantIP)
	}
	if p.TCPLayer().Seq != 777 {
		t.Errorf("TCP seq = %d, want 777", p.TCPLayer().Seq)
	}
}

func TestRoundtripIPv4UDP(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4,
		Protocol: IPProtocolUDP, SrcPort: 53, DstPort: 5353,
		PayloadLen: 32,
	})
	sum, err := NewParser().Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Protocol != IPProtocolUDP || sum.SrcPort != 53 || sum.DstPort != 5353 || !sum.TransportOK {
		t.Errorf("summary = %+v", sum)
	}
	if sum.IPLength != IPv4HeaderLen+UDPHeaderLen+32 {
		t.Errorf("IPLength = %d", sum.IPLength)
	}
}

func TestRoundtripIPv6(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcIP: srcV6, DstIP: dstV6,
		Protocol: IPProtocolTCP, SrcPort: 443, DstPort: 50000,
		PayloadLen: 64,
	})
	sum, err := NewParser().Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.IsIPv6 || sum.SrcIP != srcV6 || sum.DstIP != dstV6 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.IPLength != IPv6HeaderLen+TCPHeaderLen+64 {
		t.Errorf("IPLength = %d", sum.IPLength)
	}
}

func TestRoundtripVLAN(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4, VLAN: 42,
		Protocol: IPProtocolUDP, SrcPort: 1, DstPort: 2,
	})
	sum, err := NewParser().Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if sum.VLAN != 42 {
		t.Errorf("VLAN = %d, want 42", sum.VLAN)
	}
	if sum.SrcIP != srcV4 || sum.DstIP != dstV4 {
		t.Errorf("IPs through VLAN tag: %v -> %v", sum.SrcIP, sum.DstIP)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4, Protocol: IPProtocolTCP,
	})
	// The IPv4 header starts after the 14-byte Ethernet header.
	hdr := frame[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
	if !ValidIPv4Checksum(hdr) {
		t.Error("built IPv4 header fails its own checksum")
	}
	// Corrupt one byte: checksum must fail.
	hdr[8] ^= 0xFF
	if ValidIPv4Checksum(hdr) {
		t.Error("corrupted IPv4 header passes checksum")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(FrameSpec{DstIP: dstV4, Protocol: IPProtocolTCP}); err == nil {
		t.Error("missing src IP: expected error")
	}
	if _, err := b.Build(FrameSpec{SrcIP: srcV4, DstIP: dstV6, Protocol: IPProtocolTCP}); err == nil {
		t.Error("mixed families: expected error")
	}
	if _, err := b.Build(FrameSpec{SrcIP: srcV4, DstIP: dstV4, Protocol: 99}); err == nil {
		t.Error("unsupported protocol: expected error")
	}
}

func TestParseTruncatedFrames(t *testing.T) {
	full := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4,
		Protocol: IPProtocolTCP, SrcPort: 1, DstPort: 2, PayloadLen: 10,
	})
	// Every truncation point up to the transport header must either
	// error or produce a non-transport summary — never panic.
	p := NewParser()
	for n := 0; n < len(full); n++ {
		sum, err := p.Parse(full[:n])
		if err != nil {
			continue
		}
		// Successful parse of a truncated frame is acceptable only once
		// the full IP header is present.
		if n < EthernetHeaderLen+IPv4HeaderLen {
			t.Errorf("truncated frame of %d bytes parsed: %+v", n, sum)
		}
	}
}

func TestParseTruncationErrorsAreDecodeErrors(t *testing.T) {
	p := NewParser()
	_, err := p.Parse([]byte{1, 2, 3})
	var de *DecodeError
	if !errorsAs(err, &de) {
		t.Fatalf("error type = %T (%v), want *DecodeError", err, err)
	}
	if de.Layer != LayerTypeEthernet || de.Want != EthernetHeaderLen {
		t.Errorf("DecodeError = %+v", de)
	}
	if !strings.Contains(de.Error(), "Ethernet") {
		t.Errorf("message %q lacks layer name", de.Error())
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors twice.
func errorsAs(err error, target **DecodeError) bool {
	for err != nil {
		if de, ok := err.(*DecodeError); ok {
			*target = de
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestParseNonIPFrame(t *testing.T) {
	// ARP ethertype 0x0806.
	frame := make([]byte, 64)
	frame[12], frame[13] = 0x08, 0x06
	p := NewParser()
	_, err := p.Parse(frame)
	if err != ErrNoIPLayer {
		t.Fatalf("err = %v, want ErrNoIPLayer", err)
	}
	if p.Stats.NonIP != 1 {
		t.Errorf("NonIP = %d, want 1", p.Stats.NonIP)
	}
}

func TestParserStats(t *testing.T) {
	p := NewParser()
	v4 := buildFrame(t, FrameSpec{SrcIP: srcV4, DstIP: dstV4, Protocol: IPProtocolTCP})
	v6 := buildFrame(t, FrameSpec{SrcIP: srcV6, DstIP: dstV6, Protocol: IPProtocolUDP})
	if _, err := p.Parse(v4); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse(v6); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse([]byte{0}); err == nil {
		t.Fatal("expected error")
	}
	if p.Stats.Frames != 3 || p.Stats.IPv4Packets != 1 || p.Stats.IPv6Packets != 1 || p.Stats.Errors != 1 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

func TestParseDoesNotPanicOnRandomBytes(t *testing.T) {
	p := NewParser()
	prop := func(data []byte) bool {
		_, _ = p.Parse(data) // must not panic
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseDoesNotPanicOnCorruptedRealFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	base := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4, VLAN: 7,
		Protocol: IPProtocolTCP, SrcPort: 1, DstPort: 2, PayloadLen: 40,
	})
	p := NewParser()
	frame := make([]byte, len(base))
	for i := 0; i < 5000; i++ {
		copy(frame, base)
		// Flip 1-4 random bytes.
		for k := 0; k < 1+rng.Intn(4); k++ {
			frame[rng.Intn(len(frame))] ^= byte(1 + rng.Intn(255))
		}
		_, _ = p.Parse(frame) // must not panic
	}
}

func TestMACAddrString(t *testing.T) {
	m := MACAddr{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("String = %q", got)
	}
}

func TestLayerTypeString(t *testing.T) {
	cases := map[LayerType]string{
		LayerTypeZero:     "None",
		LayerTypeEthernet: "Ethernet",
		LayerTypeDot1Q:    "Dot1Q",
		LayerTypeIPv4:     "IPv4",
		LayerTypeIPv6:     "IPv6",
		LayerTypeTCP:      "TCP",
		LayerTypeUDP:      "UDP",
		LayerTypePayload:  "Payload",
		LayerType(200):    "LayerType(200)",
	}
	for lt, want := range cases {
		if got := lt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", lt, got, want)
		}
	}
}

func TestEthernetDecodeFields(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP: srcV4, DstIP: dstV4, Protocol: IPProtocolUDP,
	})
	var eth Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if eth.SrcMAC != srcMAC || eth.DstMAC != dstMAC {
		t.Errorf("MACs = %v -> %v", eth.SrcMAC, eth.DstMAC)
	}
	if eth.EtherType != EtherTypeIPv4 {
		t.Errorf("EtherType = %#x", eth.EtherType)
	}
	if eth.NextLayerType() != LayerTypeIPv4 {
		t.Errorf("NextLayerType = %v", eth.NextLayerType())
	}
}

func TestIPv4DecodeRejectsGarbage(t *testing.T) {
	var ip IPv4
	// Version nibble != 4.
	bad := make([]byte, IPv4HeaderLen)
	bad[0] = 0x60 | 5
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("version 6 accepted by IPv4 decoder")
	}
	// IHL < 5.
	bad[0] = 0x40 | 4
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("IHL 4 accepted")
	}
	// Truncated.
	if err := ip.DecodeFromBytes(bad[:10]); err == nil {
		t.Error("10-byte header accepted")
	}
}

func TestIPv6DecodeRejectsGarbage(t *testing.T) {
	var ip IPv6
	bad := make([]byte, IPv6HeaderLen)
	bad[0] = 0x40 // version 4
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("version 4 accepted by IPv6 decoder")
	}
	if err := ip.DecodeFromBytes(bad[:20]); err == nil {
		t.Error("truncated IPv6 header accepted")
	}
}

func TestTCPFlagsRoundtrip(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4,
		Protocol: IPProtocolTCP, SrcPort: 9, DstPort: 10,
		TCPFlagsSYN: true, TCPFlagsACK: true,
	})
	p := NewParser()
	if _, err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	tcp := p.TCPLayer()
	if !tcp.SYN || !tcp.ACK {
		t.Errorf("flags: SYN=%v ACK=%v, want both true", tcp.SYN, tcp.ACK)
	}
	if tcp.FIN || tcp.RST || tcp.PSH || tcp.URG {
		t.Errorf("unexpected flags set: %+v", tcp)
	}
}

// TestBuilderFrameRoundtripProperty: frames built from arbitrary valid
// specs must decode back to the same addressing tuple.
func TestBuilderFrameRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := NewBuilder()
	p := NewParser()
	for i := 0; i < 500; i++ {
		var src, dst netip.Addr
		isV6 := rng.Intn(2) == 0
		if isV6 {
			var a, z [16]byte
			rng.Read(a[:])
			rng.Read(z[:])
			a[0], z[0] = 0x20, 0x20 // global unicast-ish
			src, dst = netip.AddrFrom16(a), netip.AddrFrom16(z)
		} else {
			var a, z [4]byte
			rng.Read(a[:])
			rng.Read(z[:])
			src, dst = netip.AddrFrom4(a), netip.AddrFrom4(z)
		}
		proto := IPProtocolTCP
		if rng.Intn(2) == 0 {
			proto = IPProtocolUDP
		}
		spec := FrameSpec{
			SrcIP: src, DstIP: dst, Protocol: proto,
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			PayloadLen: rng.Intn(1400),
		}
		if rng.Intn(4) == 0 {
			spec.VLAN = uint16(1 + rng.Intn(4094))
		}
		frame, err := b.Build(spec)
		if err != nil {
			t.Fatalf("case %d: Build: %v", i, err)
		}
		sum, err := p.Parse(frame)
		if err != nil {
			t.Fatalf("case %d: Parse: %v (spec %+v)", i, err, spec)
		}
		if sum.SrcIP != src || sum.DstIP != dst {
			t.Fatalf("case %d: IPs %v->%v, want %v->%v", i, sum.SrcIP, sum.DstIP, src, dst)
		}
		if sum.SrcPort != spec.SrcPort || sum.DstPort != spec.DstPort {
			t.Fatalf("case %d: ports %d->%d, want %d->%d", i, sum.SrcPort, sum.DstPort, spec.SrcPort, spec.DstPort)
		}
		if sum.VLAN != spec.VLAN {
			t.Fatalf("case %d: VLAN %d, want %d", i, sum.VLAN, spec.VLAN)
		}
		if sum.IsIPv6 != isV6 {
			t.Fatalf("case %d: IsIPv6 = %v", i, sum.IsIPv6)
		}
	}
}

// TestParserZeroAlloc: the steady-state decode path must not allocate.
func TestParserZeroAlloc(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4,
		Protocol: IPProtocolTCP, SrcPort: 1, DstPort: 2, PayloadLen: 100,
	})
	p := NewParser()
	if _, err := p.Parse(frame); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, _ = p.Parse(frame)
	})
	if allocs > 0 {
		t.Errorf("Parse allocates %v times per call, want 0", allocs)
	}
}

// ValidIPv4Checksum reports whether the decoded header checksum is correct.
// It must be called with the original header bytes still alive.
func ValidIPv4Checksum(header []byte) bool {
	if len(header) < IPv4HeaderLen {
		return false
	}
	hlen := int(header[0]&0x0F) * 4
	if hlen < IPv4HeaderLen || hlen > len(header) {
		return false
	}
	return ipChecksum(header[:hlen]) == 0
}

// TCPLayer exposes the last-decoded TCP header.
func (p *Parser) TCPLayer() *TCP { return &p.tcp }
