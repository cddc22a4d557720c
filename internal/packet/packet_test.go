package packet

import (
	"encoding/binary"
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
	if want := ethernetLen + ipv4Len + tcpLen + 100; sum.WireLength != len(frame) || len(frame) != want {
		t.Errorf("WireLength = %d, frame %d bytes, want %d", sum.WireLength, len(frame), want)
	}
	if seq := binary.BigEndian.Uint32(frame[ethernetLen+ipv4Len+4:]); seq != 777 {
		t.Errorf("TCP seq = %d, want 777", seq)
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
	if sum.Protocol != IPProtocolUDP || sum.SrcPort != 53 || sum.DstPort != 5353 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.WireLength != ethernetLen+ipv4Len+udpLen+32 {
		t.Errorf("WireLength = %d", sum.WireLength)
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
	if sum.SrcIP != srcV6 || sum.DstIP != dstV6 || sum.SrcPort != 443 || sum.DstPort != 50000 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.WireLength != ethernetLen+ipv6Len+tcpLen+64 {
		t.Errorf("WireLength = %d", sum.WireLength)
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
	if tpid, tci := binary.BigEndian.Uint16(frame[12:]), binary.BigEndian.Uint16(frame[14:]); tpid != etherTypeDot1Q || tci != 42 {
		t.Errorf("tag = %#04x %d, want %#04x 42", tpid, tci, etherTypeDot1Q)
	}
	if sum.SrcIP != srcV4 || sum.DstIP != dstV4 || sum.SrcPort != 1 || sum.DstPort != 2 {
		t.Errorf("through VLAN tag: %+v", sum)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcIP: srcV4, DstIP: dstV4, Protocol: IPProtocolTCP,
	})
	// The IPv4 header starts after the 14-byte Ethernet header.
	hdr := frame[ethernetLen : ethernetLen+ipv4Len]
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
		if n < ethernetLen+ipv4Len {
			t.Errorf("truncated frame of %d bytes parsed: %+v", n, sum)
		}
	}
}

// TestParseTruncationErrorsAreDecodeErrors: a decode error names the layer
// it failed in and, for a truncation, the bytes present and needed.
func TestParseTruncationErrorsAreDecodeErrors(t *testing.T) {
	full := buildFrame(t, FrameSpec{SrcIP: srcV6, DstIP: dstV6, VLAN: 3, Protocol: IPProtocolUDP})
	for _, c := range []struct {
		frame []byte
		want  string
	}{
		{[]byte{1, 2, 3}, "packet: Ethernet: truncated header (have 3 bytes, want 14)"},
		{full[:ethernetLen+2], "packet: Dot1Q: truncated header (have 2 bytes, want 4)"},
		{full[:ethernetLen+dot1QLen+39], "packet: IPv6: truncated header (have 39 bytes, want 40)"},
	} {
		_, err := NewParser().Parse(c.frame)
		if err == nil || err.Error() != c.want {
			t.Errorf("%d-byte frame: error %v, want %q", len(c.frame), err, c.want)
		}
	}
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
	if _, err := p.Parse(make([]byte, ethernetLen)); err != ErrNoIPLayer {
		t.Fatalf("err = %v, want ErrNoIPLayer", err)
	}
	if want := (ParserStats{Frames: 4, NonIP: 1, Errors: 1}); p.Stats != want {
		t.Errorf("stats = %+v, want %+v", p.Stats, want)
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

// TestEthernetDecodeFields: the builder lays out destination MAC, source
// MAC and EtherType, and the decoder follows the EtherType, so rewriting it
// turns the same frame into a non-IP one.
func TestEthernetDecodeFields(t *testing.T) {
	frame := buildFrame(t, FrameSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP: srcV4, DstIP: dstV4, Protocol: IPProtocolUDP,
	})
	if MACAddr(frame[0:6]) != dstMAC || MACAddr(frame[6:12]) != srcMAC {
		t.Errorf("MACs = %x -> %x", frame[6:12], frame[0:6])
	}
	if et := binary.BigEndian.Uint16(frame[12:]); et != etherTypeIPv4 {
		t.Errorf("EtherType = %#x", et)
	}
	if _, err := NewParser().Parse(frame); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(frame[12:], 0x0806) // ARP
	if _, err := NewParser().Parse(frame); err != ErrNoIPLayer {
		t.Errorf("ARP EtherType: err = %v, want ErrNoIPLayer", err)
	}
}

// ethernetFrame prepends an untagged Ethernet header to an IP datagram.
func ethernetFrame(etherType uint16, ip []byte) []byte {
	frame := binary.BigEndian.AppendUint16(make([]byte, 12), etherType)
	return append(frame, ip...)
}

func TestIPv4DecodeRejectsGarbage(t *testing.T) {
	p := NewParser()
	bad := make([]byte, ipv4Len)
	bad[3] = ipv4Len // total length
	for _, c := range []struct {
		verIHL, length byte
		n              int
		want           string
	}{
		{0x60 | 5, ipv4Len, ipv4Len, "version field is not 4"},
		{0x40 | 4, ipv4Len, ipv4Len, "IHL below minimum"},
		{0x40 | 6, ipv4Len, ipv4Len, "(have 20 bytes, want 24)"},
		{0x40 | 5, ipv4Len - 1, ipv4Len, "total length below header length"},
		{0x40 | 5, ipv4Len, 10, "(have 10 bytes, want 20)"},
	} {
		bad[0], bad[3] = c.verIHL, c.length
		_, err := p.Parse(ethernetFrame(etherTypeIPv4, bad[:c.n]))
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "IPv4") {
			t.Errorf("header %#x, length %d, %d bytes: err = %v, want %q", c.verIHL, c.length, c.n, err, c.want)
		}
	}
	if p.Stats != (ParserStats{Frames: 5, Errors: 5}) {
		t.Errorf("stats = %+v, want 5 errors", p.Stats)
	}
}

func TestIPv6DecodeRejectsGarbage(t *testing.T) {
	p := NewParser()
	bad := make([]byte, ipv6Len)
	bad[0] = 0x40 // version 4
	if _, err := p.Parse(ethernetFrame(etherTypeIPv6, bad)); err == nil || !strings.Contains(err.Error(), "IPv6: version") {
		t.Errorf("version 4 in an IPv6 frame: err = %v", err)
	}
	if _, err := p.Parse(ethernetFrame(etherTypeIPv6, bad[:20])); err == nil || !strings.Contains(err.Error(), "(have 20 bytes, want 40)") {
		t.Errorf("truncated IPv6 header: err = %v", err)
	}
	if p.Stats != (ParserStats{Frames: 2, Errors: 2}) {
		t.Errorf("stats = %+v, want 2 errors", p.Stats)
	}
}

// TestParseTransportEdges: a transport header the decoder cannot read
// leaves the ports zero but the frame decoded, and the ports are read
// only from what the IP header declares as its payload.
func TestParseTransportEdges(t *testing.T) {
	be := binary.BigEndian
	tcp := buildFrame(t, FrameSpec{SrcIP: srcV4, DstIP: dstV4, Protocol: IPProtocolTCP, SrcPort: 7, DstPort: 8, PayloadLen: 4})
	udp := buildFrame(t, FrameSpec{SrcIP: srcV6, DstIP: dstV6, Protocol: IPProtocolUDP, SrcPort: 7, DstPort: 8})
	const ip, tcpOff, udpOff = ethernetLen, ethernetLen + ipv4Len, ethernetLen + ipv6Len
	for _, c := range []struct {
		name  string
		base  []byte
		edit  func(f []byte) []byte
		ports bool
	}{
		{"whole TCP", tcp, func(f []byte) []byte { return f }, true},
		{"TCP data offset 4", tcp, func(f []byte) []byte { f[tcpOff+12] = 4 << 4; return f }, false},
		{"TCP data offset past the segment", tcp, func(f []byte) []byte { f[tcpOff+12] = 15 << 4; return f }, false},
		{"IPv4 total length cuts TCP", tcp, func(f []byte) []byte { be.PutUint16(f[ip+2:], ipv4Len+tcpLen-1); return f }, false},
		{"IPv4 later fragment", tcp, func(f []byte) []byte { be.PutUint16(f[ip+6:], 1); return f }, false},
		{"IPv4 first fragment", tcp, func(f []byte) []byte { be.PutUint16(f[ip+6:], 1<<13); return f }, true},
		{"whole UDP", udp, func(f []byte) []byte { return f }, true},
		{"UDP length 7", udp, func(f []byte) []byte { be.PutUint16(f[udpOff+4:], 7); return f }, false},
		{"IPv6 payload length cuts UDP", udp, func(f []byte) []byte { be.PutUint16(f[ip+4:], udpLen-1); return f }, false},
		{"UDP cut by the capture", udp, func(f []byte) []byte { return f[:len(f)-1] }, false},
	} {
		p := NewParser()
		sum, err := p.Parse(c.edit(append([]byte(nil), c.base...)))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want := [2]uint16{}
		if c.ports {
			want = [2]uint16{7, 8}
		}
		if got := [2]uint16{sum.SrcPort, sum.DstPort}; got != want {
			t.Errorf("%s: ports %v, want %v", c.name, got, want)
		}
		if p.Stats != (ParserStats{Frames: 1}) {
			t.Errorf("%s: stats = %+v", c.name, p.Stats)
		}
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
		if sum.Protocol != proto || sum.WireLength != len(frame) {
			t.Fatalf("case %d: protocol %d, wire length %d of %d", i, sum.Protocol, sum.WireLength, len(frame))
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
	if len(header) < ipv4Len {
		return false
	}
	hlen := int(header[0]&0x0F) * 4
	if hlen < ipv4Len || hlen > len(header) {
		return false
	}
	return foldChecksum(addChecksum(0, header[:hlen])) == 0
}
