package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

func writeNgCapture(t *testing.T, packets [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewNgWriter(&buf, Header{})
	for i, p := range packets {
		ci := CaptureInfo{
			Timestamp:     testTime.Add(time.Duration(i) * time.Second),
			CaptureLength: len(p),
			Length:        len(p),
		}
		if err := w.WritePacket(ci, p); err != nil {
			t.Fatalf("WritePacket(%d): %v", i, err)
		}
	}
	return buf.Bytes()
}

func TestNgRoundtrip(t *testing.T) {
	packets := [][]byte{{1, 2, 3}, {4, 5, 6, 7, 8}, {}}
	raw := writeNgCapture(t, packets)
	r, err := NewNgReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range packets {
		ci, data, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("packet %d data = %v, want %v", i, data, want)
		}
		wantTS := testTime.Add(time.Duration(i) * time.Second).Truncate(time.Microsecond)
		if !ci.Timestamp.Equal(wantTS) {
			t.Errorf("packet %d ts = %v, want %v", i, ci.Timestamp, wantTS)
		}
		if ci.InterfaceIndex != 0 {
			t.Errorf("packet %d iface = %d", i, ci.InterfaceIndex)
		}
	}
	if _, _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("after last packet: %v, want EOF", err)
	}
}

func TestNgNotPcapng(t *testing.T) {
	classic := writeCapture(t, Header{}, [][]byte{{1}})
	_, err := NewNgReader(bytes.NewReader(classic))
	if !errors.Is(err, ErrNotPcapng) {
		t.Errorf("err = %v, want ErrNotPcapng", err)
	}
}

func TestNgCorruptTrailer(t *testing.T) {
	raw := writeNgCapture(t, [][]byte{{1, 2, 3}})
	// Corrupt the last 4 bytes (the EPB trailer length).
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], 9999)
	r, err := NewNgReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestNgUnknownBlocksSkipped(t *testing.T) {
	var buf bytes.Buffer
	w := NewNgWriter(&buf, Header{})
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	// Inject a Name Resolution Block (type 4) with empty body.
	nrb := make([]byte, 12)
	binary.LittleEndian.PutUint32(nrb[0:4], 4)
	binary.LittleEndian.PutUint32(nrb[4:8], 12)
	binary.LittleEndian.PutUint32(nrb[8:12], 12)
	buf.Write(nrb)
	if err := w.WritePacket(CaptureInfo{Timestamp: testTime, CaptureLength: 2, Length: 2}, []byte{7, 8}); err != nil {
		t.Fatal(err)
	}
	r, err := NewNgReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{7, 8}) {
		t.Errorf("data = %v", data)
	}
}

func TestNgPacketBeforeInterfaceRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewNgWriter(&buf, Header{})
	if err := w.WritePacket(CaptureInfo{Timestamp: testTime, CaptureLength: 1, Length: 1}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Excise the IDB (bytes 28..48) so the EPB references interface 0
	// with no interface defined.
	mut := append(append([]byte(nil), raw[:28]...), raw[48:]...)
	r, err := NewNgReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// ngCaptureWithResolution hand-builds a capture whose IDB carries the
// if_tsresol byte tsresol and whose one packet is stamped ticks.
func ngCaptureWithResolution(tsresol byte, ticks uint64) []byte {
	var buf bytes.Buffer
	shb := make([]byte, 28)
	binary.LittleEndian.PutUint32(shb[0:4], blockTypeSectionHeader)
	binary.LittleEndian.PutUint32(shb[4:8], 28)
	binary.LittleEndian.PutUint32(shb[8:12], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[12:14], 1)
	binary.LittleEndian.PutUint32(shb[24:28], 28)
	buf.Write(shb)

	idb := make([]byte, 28) // 20 fixed + 8 for the option block
	binary.LittleEndian.PutUint32(idb[0:4], blockTypeInterfaceDesc)
	binary.LittleEndian.PutUint32(idb[4:8], 28)
	binary.LittleEndian.PutUint16(idb[8:10], uint16(LinkTypeEthernet))
	binary.LittleEndian.PutUint32(idb[12:16], 65535)
	binary.LittleEndian.PutUint16(idb[16:18], optTsResol)
	binary.LittleEndian.PutUint16(idb[18:20], 1)
	idb[20] = tsresol
	binary.LittleEndian.PutUint32(idb[24:28], 28)
	buf.Write(idb)

	epb := make([]byte, 36)
	binary.LittleEndian.PutUint32(epb[0:4], blockTypeEnhancedPacket)
	binary.LittleEndian.PutUint32(epb[4:8], 36)
	binary.LittleEndian.PutUint32(epb[8:12], 0)
	binary.LittleEndian.PutUint32(epb[12:16], uint32(ticks>>32))
	binary.LittleEndian.PutUint32(epb[16:20], uint32(ticks))
	binary.LittleEndian.PutUint32(epb[20:24], 4)
	binary.LittleEndian.PutUint32(epb[24:28], 4)
	copy(epb[28:32], []byte{1, 2, 3, 4})
	binary.LittleEndian.PutUint32(epb[32:36], 36)
	buf.Write(epb)
	return buf.Bytes()
}

func readNgTimestamp(raw []byte) (time.Time, error) {
	r, err := NewNgReader(bytes.NewReader(raw))
	if err != nil {
		return time.Time{}, err
	}
	ci, _, err := r.ReadPacket()
	return ci.Timestamp, err
}

// TestNgNanosecondResolutionOption: if_tsresol sets the tick rate, decimal
// (10^-n s) or binary (2^-n s, top bit set), and a timestamp converts to
// wall time exactly at every rate a uint64 holds — including rates whose
// fraction times 10^9 overflows 64 bits. A finer rate is refused.
func TestNgNanosecondResolutionOption(t *testing.T) {
	ts := time.Date(2001, time.July, 24, 9, 0, 0, 123456789, time.UTC)
	got, err := readNgTimestamp(ngCaptureWithResolution(9, uint64(ts.UnixNano())))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ts) {
		t.Errorf("ns timestamp = %v, want %v", got, ts)
	}

	want := time.Unix(1, 5e8).UTC()
	for _, c := range []struct {
		tsresol byte
		ticks   uint64 // 1.5 s
	}{
		{6, 1_500_000},
		{9, 1_500_000_000},
		{12, 1_500_000_000_000},
		{19, 15_000_000_000_000_000_000},
		{0x80 | 10, 3 << 9},
		{0x80 | 40, 3 << 39},
		{0x80 | 63, 3 << 62},
	} {
		got, err := readNgTimestamp(ngCaptureWithResolution(c.tsresol, c.ticks))
		if err != nil {
			t.Errorf("if_tsresol %#x: %v", c.tsresol, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("if_tsresol %#x: timestamp %v, want %v", c.tsresol, got, want)
		}
	}
	for _, tsresol := range []byte{20, 0x80 | 64} {
		if _, err := readNgTimestamp(ngCaptureWithResolution(tsresol, 0)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("if_tsresol %#x: err = %v, want ErrCorrupt", tsresol, err)
		}
	}
}

func TestOpenReaderDetectsBoth(t *testing.T) {
	classic := writeCapture(t, Header{}, [][]byte{{1, 2}})
	ng := writeNgCapture(t, [][]byte{{1, 2}})

	for name, raw := range map[string][]byte{"classic": classic, "pcapng": ng} {
		r, lt, err := OpenReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lt != LinkTypeEthernet {
			t.Errorf("%s: link type %d", name, lt)
		}
		ci, data, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) != 2 || ci.CaptureLength != 2 {
			t.Errorf("%s: packet %v %+v", name, data, ci)
		}
	}
	if _, _, err := OpenReader(bytes.NewReader([]byte{9, 9, 9, 9, 9})); err == nil {
		t.Error("garbage accepted")
	}
}

func TestNgWriterValidation(t *testing.T) {
	w := NewNgWriter(io.Discard, Header{})
	if err := w.WritePacket(CaptureInfo{CaptureLength: 2, Length: 2}, []byte{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := w.WritePacket(CaptureInfo{CaptureLength: 2, Length: 1}, []byte{1, 2}); err == nil {
		t.Error("wire < capture accepted")
	}
}

func TestNgPadding(t *testing.T) {
	// Packet sizes 1..5 exercise all padding cases.
	for size := 1; size <= 5; size++ {
		payload := bytes.Repeat([]byte{0xAB}, size)
		raw := writeNgCapture(t, [][]byte{payload})
		r, err := NewNgReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		_, data, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(data, payload) {
			t.Errorf("size %d: %v", size, data)
		}
		if _, _, err := r.ReadPacket(); err != io.EOF {
			t.Errorf("size %d: trailing garbage after padded block: %v", size, err)
		}
	}
}
