package packet

import (
	"testing"
)

// FuzzParse drives the frame decoder with arbitrary bytes: it must never
// panic, and any successful parse must satisfy basic invariants. Run the
// fuzzer with `go test -fuzz FuzzParse ./internal/packet`; under plain
// `go test` the seed corpus doubles as a regression test.
func FuzzParse(f *testing.F) {
	// Seeds: a valid v4/TCP frame, a VLAN v6/UDP frame, truncations and
	// junk.
	b := NewBuilder()
	if frame, err := b.Build(FrameSpec{
		SrcIP: srcV4, DstIP: dstV4, Protocol: IPProtocolTCP,
		SrcPort: 80, DstPort: 443, PayloadLen: 32,
	}); err == nil {
		f.Add(append([]byte(nil), frame...))
		f.Add(append([]byte(nil), frame[:20]...))
	}
	if frame, err := b.Build(FrameSpec{
		SrcIP: srcV6, DstIP: dstV6, VLAN: 5, Protocol: IPProtocolUDP,
	}); err == nil {
		f.Add(append([]byte(nil), frame...))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})

	p := NewParser()
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := p.Parse(data)
		if err != nil {
			return
		}
		if sum.WireLength != len(data) {
			t.Fatalf("WireLength %d != frame length %d", sum.WireLength, len(data))
		}
		if !sum.SrcIP.IsValid() || !sum.DstIP.IsValid() {
			t.Fatalf("successful parse with invalid addresses: %+v", sum)
		}
		if sum.SrcIP.Is6() != sum.DstIP.Is6() {
			t.Fatalf("mixed address families: %+v", sum)
		}
		if sum.Protocol != IPProtocolTCP && sum.Protocol != IPProtocolUDP && sum.SrcPort|sum.DstPort != 0 {
			t.Fatalf("ports without a TCP or UDP header: %+v", sum)
		}
	})
}
