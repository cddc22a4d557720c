package pcap

// pcapng support: the block-structured successor format (RFC draft
// "pcapng") that modern capture tooling writes by default. The reader
// handles Section Header, Interface Description and Enhanced Packet
// blocks — enough to ingest any normal single-section capture — and the
// writer emits minimal, spec-conformant files. Both byte orders are
// supported; per-interface timestamp resolution honours the if_tsresol
// option.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"
)

// pcapng block type codes.
const (
	blockTypeSectionHeader  uint32 = 0x0A0D0D0A
	blockTypeInterfaceDesc  uint32 = 0x00000001
	blockTypeEnhancedPacket uint32 = 0x00000006
	byteOrderMagic          uint32 = 0x1A2B3C4D
)

// option codes used by the reader/writer.
const (
	optEndOfOpt uint16 = 0
	optTsResol  uint16 = 9 // if_tsresol
)

// ngInterface is one interface's decoding state.
type ngInterface struct {
	linkType uint32
	snapLen  uint32
	// ticksPerSecond converts timestamp units to wall time.
	ticksPerSecond uint64
}

// NgReader streams packets from a pcapng capture.
type NgReader struct {
	r      io.Reader
	order  binary.ByteOrder
	ifaces []ngInterface
	buf    []byte
}

// ErrNotPcapng reports that the stream does not begin with a pcapng
// section header (callers may fall back to the classic reader).
var ErrNotPcapng = errors.New("pcap: not a pcapng capture")

// NewNgReader parses the leading Section Header Block.
func NewNgReader(r io.Reader) (*NgReader, error) {
	var head [12]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading pcapng section header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:4]) != blockTypeSectionHeader {
		return nil, ErrNotPcapng
	}
	var order binary.ByteOrder
	switch {
	case binary.LittleEndian.Uint32(head[8:12]) == byteOrderMagic:
		order = binary.LittleEndian
	case binary.BigEndian.Uint32(head[8:12]) == byteOrderMagic:
		order = binary.BigEndian
	default:
		return nil, fmt.Errorf("%w: bad byte-order magic", ErrCorrupt)
	}
	total := order.Uint32(head[4:8])
	if total < 28 || total > 1<<20 || total%4 != 0 {
		return nil, fmt.Errorf("%w: section header length %d", ErrCorrupt, total)
	}
	// Skip the rest of the SHB (version, section length, options,
	// trailing length).
	rest := make([]byte, total-12)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("pcap: reading section header body: %w", err)
	}
	major := order.Uint16(rest[0:2])
	if major != 1 {
		return nil, fmt.Errorf("%w: unsupported pcapng major version %d", ErrCorrupt, major)
	}
	return &NgReader{r: r, order: order}, nil
}

// ReadPacket returns the next enhanced packet. Interface description
// blocks are consumed transparently; unknown block types are skipped.
// io.EOF marks a clean end of file.
func (r *NgReader) ReadPacket() (CaptureInfo, []byte, error) {
	var ci CaptureInfo
	for {
		var head [8]byte
		if _, err := io.ReadFull(r.r, head[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return ci, nil, io.EOF
			}
			return ci, nil, fmt.Errorf("pcap: reading block header: %w", err)
		}
		btype := r.order.Uint32(head[0:4])
		total := r.order.Uint32(head[4:8])
		if total < 12 || total > 1<<24 || total%4 != 0 {
			return ci, nil, fmt.Errorf("%w: block length %d", ErrCorrupt, total)
		}
		bodyLen := int(total) - 12
		if cap(r.buf) < bodyLen {
			r.buf = make([]byte, bodyLen)
		}
		body := r.buf[:bodyLen]
		if _, err := io.ReadFull(r.r, body); err != nil {
			return ci, nil, fmt.Errorf("pcap: reading block body: %w", err)
		}
		var trailer [4]byte
		if _, err := io.ReadFull(r.r, trailer[:]); err != nil {
			return ci, nil, fmt.Errorf("pcap: reading block trailer: %w", err)
		}
		if r.order.Uint32(trailer[:]) != total {
			return ci, nil, fmt.Errorf("%w: trailer length mismatch", ErrCorrupt)
		}

		switch btype {
		case blockTypeInterfaceDesc:
			if err := r.addInterface(body); err != nil {
				return ci, nil, err
			}
		case blockTypeEnhancedPacket:
			return r.decodeEPB(body)
		case blockTypeSectionHeader:
			return ci, nil, fmt.Errorf("%w: multi-section captures are not supported", ErrCorrupt)
		default:
			// Skip unknown blocks (name resolution, statistics, ...).
		}
	}
}

func (r *NgReader) addInterface(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("%w: interface description too short", ErrCorrupt)
	}
	iface := ngInterface{
		linkType:       uint32(r.order.Uint16(body[0:2])),
		snapLen:        r.order.Uint32(body[4:8]),
		ticksPerSecond: 1_000_000, // spec default: microseconds
	}
	// Parse options for if_tsresol.
	opts := body[8:]
	for len(opts) >= 4 {
		code := r.order.Uint16(opts[0:2])
		olen := int(r.order.Uint16(opts[2:4]))
		opts = opts[4:]
		if olen > len(opts) {
			return fmt.Errorf("%w: interface option overruns block", ErrCorrupt)
		}
		if code == optEndOfOpt {
			break
		}
		if code == optTsResol && olen >= 1 {
			// 2^-n or 10^-n seconds; refuse a tick rate a uint64 cannot hold.
			v := opts[0]
			if exp := v & 0x7F; v&0x80 != 0 {
				if exp > 63 {
					return fmt.Errorf("%w: timestamp resolution 2^-%d", ErrCorrupt, exp)
				}
				iface.ticksPerSecond = 1 << exp
			} else {
				if exp > 19 {
					return fmt.Errorf("%w: timestamp resolution 10^-%d", ErrCorrupt, exp)
				}
				iface.ticksPerSecond = 1
				for range exp {
					iface.ticksPerSecond *= 10
				}
			}
		}
		// Advance past the value plus padding to 4 bytes.
		adv := (olen + 3) &^ 3
		if adv > len(opts) {
			adv = len(opts)
		}
		opts = opts[adv:]
	}
	r.ifaces = append(r.ifaces, iface)
	return nil
}

func (r *NgReader) decodeEPB(body []byte) (CaptureInfo, []byte, error) {
	var ci CaptureInfo
	if len(body) < 20 {
		return ci, nil, fmt.Errorf("%w: enhanced packet block too short", ErrCorrupt)
	}
	ifID := r.order.Uint32(body[0:4])
	if int(ifID) >= len(r.ifaces) {
		return ci, nil, fmt.Errorf("%w: packet references unknown interface %d", ErrCorrupt, ifID)
	}
	iface := r.ifaces[ifID]
	tsHigh := r.order.Uint32(body[4:8])
	tsLow := r.order.Uint32(body[8:12])
	capLen := r.order.Uint32(body[12:16])
	wireLen := r.order.Uint32(body[16:20])
	if capLen > MaxSnapLen || int(capLen) > len(body)-20 {
		return ci, nil, fmt.Errorf("%w: captured length %d", ErrCorrupt, capLen)
	}
	if wireLen < capLen {
		return ci, nil, fmt.Errorf("%w: wire length %d below capture %d", ErrCorrupt, wireLen, capLen)
	}
	ticks := uint64(tsHigh)<<32 | uint64(tsLow)
	secs := ticks / iface.ticksPerSecond
	frac := ticks % iface.ticksPerSecond
	// frac < ticksPerSecond, so the 128-bit quotient fits in 64 bits.
	hi, lo := bits.Mul64(frac, uint64(time.Second))
	nanos, _ := bits.Div64(hi, lo, iface.ticksPerSecond)
	ci.Timestamp = time.Unix(int64(secs), int64(nanos)).UTC()
	ci.CaptureLength = int(capLen)
	ci.Length = int(wireLen)
	ci.InterfaceIndex = int(ifID)
	return ci, body[20 : 20+capLen], nil
}

// NgWriter emits a minimal single-interface pcapng capture with
// microsecond timestamps.
type NgWriter struct {
	w           io.Writer
	hdr         Header
	wroteHeader bool
	scratch     []byte
}

// NewNgWriter returns a writer with the given interface parameters
// (zero values default like NewWriter).
func NewNgWriter(w io.Writer, hdr Header) *NgWriter {
	if hdr.SnapLen == 0 {
		hdr.SnapLen = 65535
	}
	if hdr.LinkType == 0 {
		hdr.LinkType = LinkTypeEthernet
	}
	return &NgWriter{w: w, hdr: hdr}
}

// WriteHeader writes the Section Header and Interface Description
// blocks. It is idempotent and invoked lazily by WritePacket.
func (w *NgWriter) WriteHeader() error {
	if w.wroteHeader {
		return nil
	}
	// SHB: type, len=28, magic, version 1.0, section length -1, len.
	shb := make([]byte, 28)
	binary.LittleEndian.PutUint32(shb[0:4], blockTypeSectionHeader)
	binary.LittleEndian.PutUint32(shb[4:8], 28)
	binary.LittleEndian.PutUint32(shb[8:12], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[12:14], 1)
	binary.LittleEndian.PutUint16(shb[14:16], 0)
	binary.LittleEndian.PutUint64(shb[16:24], math.MaxUint64) // unknown section length
	binary.LittleEndian.PutUint32(shb[24:28], 28)
	if _, err := w.w.Write(shb); err != nil {
		return fmt.Errorf("pcap: writing section header: %w", err)
	}
	// IDB: type, len=20, linktype, reserved, snaplen, len. No options:
	// microsecond resolution is the spec default.
	idb := make([]byte, 20)
	binary.LittleEndian.PutUint32(idb[0:4], blockTypeInterfaceDesc)
	binary.LittleEndian.PutUint32(idb[4:8], 20)
	binary.LittleEndian.PutUint16(idb[8:10], uint16(w.hdr.LinkType))
	binary.LittleEndian.PutUint32(idb[12:16], w.hdr.SnapLen)
	binary.LittleEndian.PutUint32(idb[16:20], 20)
	if _, err := w.w.Write(idb); err != nil {
		return fmt.Errorf("pcap: writing interface description: %w", err)
	}
	w.wroteHeader = true
	return nil
}

// WritePacket appends one Enhanced Packet Block.
func (w *NgWriter) WritePacket(ci CaptureInfo, data []byte) error {
	if err := w.WriteHeader(); err != nil {
		return err
	}
	if ci.CaptureLength != len(data) {
		return fmt.Errorf("pcap: capture length %d != data length %d", ci.CaptureLength, len(data))
	}
	if ci.Length < ci.CaptureLength {
		return fmt.Errorf("pcap: wire length %d < capture length %d", ci.Length, ci.CaptureLength)
	}
	pad := (4 - len(data)%4) % 4
	total := 32 + len(data) + pad
	if cap(w.scratch) < total {
		w.scratch = make([]byte, total)
	}
	b := w.scratch[:total]
	for i := range b {
		b[i] = 0
	}
	binary.LittleEndian.PutUint32(b[0:4], blockTypeEnhancedPacket)
	binary.LittleEndian.PutUint32(b[4:8], uint32(total))
	binary.LittleEndian.PutUint32(b[8:12], 0) // interface 0
	micros := uint64(ci.Timestamp.Unix())*1_000_000 + uint64(ci.Timestamp.Nanosecond())/1000
	binary.LittleEndian.PutUint32(b[12:16], uint32(micros>>32))
	binary.LittleEndian.PutUint32(b[16:20], uint32(micros))
	binary.LittleEndian.PutUint32(b[20:24], uint32(ci.CaptureLength))
	binary.LittleEndian.PutUint32(b[24:28], uint32(ci.Length))
	copy(b[28:], data)
	binary.LittleEndian.PutUint32(b[total-4:], uint32(total))
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("pcap: writing packet block: %w", err)
	}
	return nil
}
