package trace

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/packet"
	"repro/internal/pcap"
)

// TestEmitRealizesSeries: the packet stream must carry (approximately)
// the bytes the series prescribes, per flow and interval, and decode
// cleanly.
func TestEmitRealizesSeries(t *testing.T) {
	tab := testTable(t, 300)
	l := testLink(t, LinkConfig{Table: tab, Flows: 60, MeanLoadBps: 2e6, Seed: 20})
	series := l.GenerateSeries(traceStart, time.Minute, 5)

	var buf bytes.Buffer
	em := NewPacketEmitter(21)
	n, err := em.Emit(&buf, series)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no packets emitted")
	}

	// Decode everything back and rebuild the byte matrix.
	back := agg.NewSeries(traceStart, time.Minute, 5)
	src, err := agg.NewPacketRecordSource(&buf, tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Collect(src, back); err != nil {
		t.Fatal(err)
	}
	if frames := src.ParserStats().Frames; frames != uint64(n) {
		t.Errorf("read %d frames, wrote %d", frames, n)
	}
	if src.Stats.Unrouted != 0 {
		t.Errorf("%d packets failed longest-prefix match", src.Stats.Unrouted)
	}

	// Per-flow, per-interval bandwidth must match within packet
	// rounding: one max-size packet per (flow, interval) plus the
	// sub-half-packet truncation allowed by the emitter.
	for _, p := range series.Flows() {
		for tt := 0; tt < series.Intervals; tt++ {
			want := series.Bandwidth(p, tt)
			got := back.Bandwidth(p, tt)
			tolBits := 1500.0 * 8 * 1.5 / series.Interval.Seconds()
			if want == 0 && got != 0 {
				t.Errorf("flow %v interval %d: spurious %v bit/s", p, tt, got)
			}
			if want > 0 && (got < want-tolBits || got > want+tolBits) {
				t.Errorf("flow %v interval %d: got %.0f want %.0f (tol %.0f)", p, tt, got, want, tolBits)
			}
		}
	}
}

func TestEmitTimestampsOrderedWithinInterval(t *testing.T) {
	tab := testTable(t, 100)
	l := testLink(t, LinkConfig{Table: tab, Flows: 20, MeanLoadBps: 1e6, Seed: 22})
	series := l.GenerateSeries(traceStart, time.Minute, 3)

	var buf bytes.Buffer
	em := NewPacketEmitter(23)
	if _, err := em.Emit(&buf, series); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	end := traceStart.Add(3 * time.Minute)
	for {
		ci, _, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ci.Timestamp.Before(prev) {
			t.Fatalf("timestamps went backwards: %v after %v", ci.Timestamp, prev)
		}
		if ci.Timestamp.Before(traceStart) || !ci.Timestamp.Before(end) {
			t.Fatalf("timestamp %v outside trace window", ci.Timestamp)
		}
		prev = ci.Timestamp
	}
}

func TestEmitPacketSizesTrimodal(t *testing.T) {
	tab := testTable(t, 100)
	l := testLink(t, LinkConfig{Table: tab, Flows: 30, MeanLoadBps: 5e6, Seed: 24})
	series := l.GenerateSeries(traceStart, time.Minute, 2)

	var buf bytes.Buffer
	em := NewPacketEmitter(25)
	if _, err := em.Emit(&buf, series); err != nil {
		t.Fatal(err)
	}
	r, _ := pcap.NewReader(&buf)
	sizes := map[int]int{}
	for {
		ci, _, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes[ci.Length]++
	}
	for _, want := range []int{54, 576, 1500} {
		if sizes[want] == 0 {
			t.Errorf("no packets of wire size %d (sizes seen: %v)", want, keys(sizes))
		}
	}
}

func keys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestEmitDeterministic(t *testing.T) {
	tab := testTable(t, 100)
	mk := func() []byte {
		l := testLink(t, LinkConfig{Table: tab, Flows: 20, MeanLoadBps: 1e6, Seed: 26})
		series := l.GenerateSeries(traceStart, time.Minute, 2)
		var buf bytes.Buffer
		em := NewPacketEmitter(27)
		if _, err := em.Emit(&buf, series); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(), mk()) {
		t.Error("Emit is not byte-for-byte deterministic for a fixed seed")
	}
}

// TestEmitGolden pins the capture Emit writes for a small seeded link to
// its SHA-256: a change to the frame builder, the pcap writer or the
// emitter's draws that alters one byte of a capture fails here.
func TestEmitGolden(t *testing.T) {
	tab := testTable(t, 100)
	l := testLink(t, LinkConfig{Table: tab, Flows: 20, MeanLoadBps: 1e5, Seed: 31})
	series := l.GenerateSeries(traceStart, time.Minute, 2)
	var buf bytes.Buffer
	n, err := NewPacketEmitter(32).Emit(&buf, series)
	if err != nil {
		t.Fatal(err)
	}
	const want = "522bbf027c6d8c38e7c28ff87fe92289aadeb4fb8dd22069915ed6b80a716e62"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("capture of %d packets, %d bytes: sha256 %s, want %s", n, buf.Len(), got, want)
	}
}

func TestEmitEmptySeries(t *testing.T) {
	series := agg.NewSeries(traceStart, time.Minute, 2)
	var buf bytes.Buffer
	em := NewPacketEmitter(28)
	n, err := em.Emit(&buf, series)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("emitted %d packets from an empty series", n)
	}
	// The file must still be a valid, empty capture.
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}

// TestEmitFramesDecodable: every emitted frame individually decodes as
// Ethernet/IPv4/TCP.
func TestEmitFramesDecodable(t *testing.T) {
	tab := testTable(t, 100)
	l := testLink(t, LinkConfig{Table: tab, Flows: 20, MeanLoadBps: 1e6, Seed: 29})
	series := l.GenerateSeries(traceStart, time.Minute, 2)
	var buf bytes.Buffer
	em := NewPacketEmitter(30)
	if _, err := em.Emit(&buf, series); err != nil {
		t.Fatal(err)
	}
	r, _ := pcap.NewReader(&buf)
	parser := packet.NewParser()
	for {
		_, data, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sum, err := parser.Parse(data)
		if err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		if sum.Protocol != packet.IPProtocolTCP || sum.DstPort != 80 {
			t.Fatalf("unexpected summary: %+v", sum)
		}
	}
}
