package agg

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/packet"
	"repro/internal/pcap"
)

func testTable(t *testing.T) *bgp.Table {
	t.Helper()
	tab := bgp.NewTable()
	for _, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24"} {
		if err := tab.Insert(bgp.Route{Prefix: netip.MustParsePrefix(s)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// collectCapture is the batch ingest of a capture, the way every caller
// spells it: a PacketRecordSource drained into the series by Collect. It
// returns the source for its frame and attribution counters.
func collectCapture(r io.Reader, tab *bgp.Table, s *Series) (*PacketRecordSource, CollectStats, error) {
	src, err := NewPacketRecordSource(r, tab)
	if err != nil {
		return nil, CollectStats{}, err
	}
	st, err := Collect(src, s)
	return src, st, err
}

func TestAddPacketAttribution(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.Header{})
	// 10.1.x.y -> the /16 (longest match), 1000 wire bytes = 8000 bits.
	writeTestFrame(t, w, "10.1.2.3", 1000, 0)
	// 10.2.x.y -> the /8.
	writeTestFrame(t, w, "10.2.0.1", 600, 61*time.Second)
	// Unrouted.
	writeTestFrame(t, w, "203.0.113.1", 100, 0)
	// Out of window.
	writeTestFrame(t, w, "10.1.2.3", 100, time.Hour)
	// Unrouted and out of window: the lookup runs first, so the source
	// counts it and Collect never sees it.
	writeTestFrame(t, w, "203.0.113.1", 100, time.Hour)

	s := NewSeries(start, time.Minute, 2)
	src, st, err := collectCapture(&buf, testTable(t), s)
	if err != nil {
		t.Fatal(err)
	}
	if src.Stats != (PacketRecordSourceStats{Packets: 5, Routed: 3, Unrouted: 2}) {
		t.Fatalf("source stats = %+v", src.Stats)
	}
	if st != (CollectStats{Records: 3, Routed: 2, OutOfRange: 1}) {
		t.Fatalf("collect stats = %+v", st)
	}
	p16 := netip.MustParsePrefix("10.1.0.0/16")
	p8 := netip.MustParsePrefix("10.0.0.0/8")
	if got := s.Bandwidth(p16, 0); !floatEq(got, 8000.0/60) {
		t.Errorf("/16 bandwidth = %v, want %v", got, 8000.0/60)
	}
	if got := s.Bandwidth(p8, 1); !floatEq(got, 4800.0/60) {
		t.Errorf("/8 bandwidth = %v, want %v", got, 4800.0/60)
	}
	// The /16 packet must NOT also count towards the covering /8.
	if got := s.Bandwidth(p8, 0); got != 0 {
		t.Errorf("/8 got leakage from /16 traffic: %v", got)
	}
}

// writeTestFrame writes one UDP frame of the given wire length to w,
// destined to dst and captured at start+at.
func writeTestFrame(t *testing.T, w *pcap.Writer, dst string, wire int, at time.Duration) {
	t.Helper()
	frame, err := packet.NewBuilder().Build(packet.FrameSpec{
		SrcIP:      netip.MustParseAddr("203.0.113.5"),
		DstIP:      netip.MustParseAddr(dst),
		Protocol:   packet.IPProtocolUDP,
		PayloadLen: wire - 42, // 14 + 20 + 8 headers
	})
	if err != nil {
		t.Fatal(err)
	}
	ci := pcap.CaptureInfo{Timestamp: start.Add(at), CaptureLength: len(frame), Length: len(frame)}
	if err := w.WritePacket(ci, frame); err != nil {
		t.Fatal(err)
	}
}

func buildTestCapture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.Header{})
	writeTestFrame(t, w, "10.1.2.3", 500, 10*time.Second)
	writeTestFrame(t, w, "10.9.9.9", 300, 20*time.Second)
	writeTestFrame(t, w, "192.0.2.200", 1500, 70*time.Second)
	writeTestFrame(t, w, "8.8.8.8", 100, 30*time.Second) // unrouted
	return buf.Bytes()
}

func TestReadPcap(t *testing.T) {
	raw := buildTestCapture(t)
	tab := testTable(t)
	s := NewSeries(start, time.Minute, 2)
	src, st, err := collectCapture(bytes.NewReader(raw), tab, s)
	if err != nil {
		t.Fatal(err)
	}
	if n := src.ParserStats().Frames; n != 4 {
		t.Errorf("frames = %d, want 4", n)
	}
	if st.Routed != 3 || src.Stats.Unrouted != 1 {
		t.Errorf("stats = %+v, %+v", src.Stats, st)
	}
	if got := s.Bandwidth(netip.MustParsePrefix("10.1.0.0/16"), 0); !floatEq(got, 500*8.0/60) {
		t.Errorf("/16 = %v", got)
	}
	if got := s.Bandwidth(netip.MustParsePrefix("192.0.2.0/24"), 1); !floatEq(got, 1500*8.0/60) {
		t.Errorf("/24 = %v", got)
	}
}

func TestReadPcapRejectsNonEthernet(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.Header{LinkType: pcap.LinkTypeRaw})
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	_, _, err := collectCapture(&buf, testTable(t), NewSeries(start, time.Minute, 1))
	if err == nil {
		t.Error("raw link type accepted")
	}
}

func TestReadPcapGarbageHeader(t *testing.T) {
	_, _, err := collectCapture(bytes.NewReader([]byte{1, 2, 3, 4}), testTable(t), NewSeries(start, time.Minute, 1))
	if err == nil {
		t.Error("garbage file accepted")
	}
}

func TestReadPcapToleratesUndecodableFrames(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.Header{})
	// One garbage frame, then one good frame.
	junk := []byte{0xFF, 0xFF, 0xFF}
	if err := w.WritePacket(pcap.CaptureInfo{Timestamp: start, CaptureLength: len(junk), Length: len(junk)}, junk); err != nil {
		t.Fatal(err)
	}
	b := packet.NewBuilder()
	frame, err := b.Build(packet.FrameSpec{
		SrcIP:    netip.MustParseAddr("203.0.113.5"),
		DstIP:    netip.MustParseAddr("10.1.2.3"),
		Protocol: packet.IPProtocolUDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(pcap.CaptureInfo{Timestamp: start, CaptureLength: len(frame), Length: len(frame)}, frame); err != nil {
		t.Fatal(err)
	}
	s := NewSeries(start, time.Minute, 1)
	src, st, err := collectCapture(&buf, testTable(t), s)
	if err != nil {
		t.Fatalf("frame-level junk must not abort the capture: %v", err)
	}
	if n := src.ParserStats().Frames; n != 2 || st.Routed != 1 {
		t.Errorf("n=%d stats=%+v", n, st)
	}
}

func TestReadPcapTruncatedFileReportsError(t *testing.T) {
	raw := buildTestCapture(t)
	_, _, err := collectCapture(bytes.NewReader(raw[:len(raw)-5]), testTable(t), NewSeries(start, time.Minute, 2))
	if err == nil {
		t.Error("truncated capture accepted")
	}
}

// TestReadPcapUsesWireLength: for snapped captures the original wire
// length, not the captured byte count, must be accounted.
func TestReadPcapUsesWireLength(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.Header{})
	b := packet.NewBuilder()
	frame, err := b.Build(packet.FrameSpec{
		SrcIP:    netip.MustParseAddr("203.0.113.5"),
		DstIP:    netip.MustParseAddr("10.1.2.3"),
		Protocol: packet.IPProtocolUDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Claim the original frame was 1500 bytes on the wire.
	ci := pcap.CaptureInfo{Timestamp: start, CaptureLength: len(frame), Length: 1500}
	if err := w.WritePacket(ci, frame); err != nil {
		t.Fatal(err)
	}
	s := NewSeries(start, time.Minute, 1)
	if _, _, err := collectCapture(&buf, testTable(t), s); err != nil {
		t.Fatal(err)
	}
	if got := s.Bandwidth(netip.MustParsePrefix("10.1.0.0/16"), 0); !floatEq(got, 1500*8.0/60) {
		t.Errorf("bandwidth = %v, want wire-length based %v", got, 1500*8.0/60)
	}
}

// TestReadPcapAutoDetectsPcapng: the ingest path accepts pcapng captures
// transparently.
func TestReadPcapAutoDetectsPcapng(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewNgWriter(&buf, pcap.Header{})
	b := packet.NewBuilder()
	frame, err := b.Build(packet.FrameSpec{
		SrcIP:    netip.MustParseAddr("203.0.113.5"),
		DstIP:    netip.MustParseAddr("10.1.2.3"),
		Protocol: packet.IPProtocolUDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	ci := pcap.CaptureInfo{Timestamp: start, CaptureLength: len(frame), Length: len(frame)}
	if err := w.WritePacket(ci, frame); err != nil {
		t.Fatal(err)
	}
	s := NewSeries(start, time.Minute, 1)
	src, st, err := collectCapture(&buf, testTable(t), s)
	if err != nil {
		t.Fatal(err)
	}
	if n := src.ParserStats().Frames; n != 1 || st.Routed != 1 {
		t.Errorf("n=%d stats=%+v", n, st)
	}
}
