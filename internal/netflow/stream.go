package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stream framing: NetFlow travels over UDP, which preserves datagram
// boundaries; a file does not. StreamWriter/StreamReader store a
// sequence of v5 datagrams with a 4-byte big-endian length prefix each,
// so exports can be captured to disk and replayed through a
// RecordSource.

// maxStreamDatagram bounds a framed datagram to the v5 maximum.
const maxStreamDatagram = HeaderLen + MaxRecordsPerDatagram*RecordLen

// StreamWriter appends length-prefixed datagrams to w.
type StreamWriter struct {
	w       io.Writer
	scratch []byte
	count   uint64
}

// NewStreamWriter returns a StreamWriter on w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// Write frames and appends one datagram.
func (sw *StreamWriter) Write(d *Datagram) error {
	raw, err := d.Encode(sw.scratch)
	if err != nil {
		return err
	}
	sw.scratch = raw
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(raw)))
	if _, err := sw.w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("netflow: writing frame length: %w", err)
	}
	if _, err := sw.w.Write(raw); err != nil {
		return fmt.Errorf("netflow: writing datagram: %w", err)
	}
	sw.count++
	return nil
}

// Count reports how many datagrams have been written.
func (sw *StreamWriter) Count() uint64 { return sw.count }

// StreamReader reads length-prefixed datagrams from r.
type StreamReader struct {
	r   io.Reader
	buf []byte
}

// NewStreamReader returns a StreamReader on r.
func NewStreamReader(r io.Reader) *StreamReader { return &StreamReader{r: r} }

// Next returns the next datagram. io.EOF marks a clean end of stream;
// a partial frame yields io.ErrUnexpectedEOF.
func (sr *StreamReader) Next() (*Datagram, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(sr.r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("netflow: reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < HeaderLen+RecordLen || n > maxStreamDatagram {
		return nil, fmt.Errorf("netflow: framed datagram of %d bytes out of range", n)
	}
	if cap(sr.buf) < int(n) {
		sr.buf = make([]byte, n)
	}
	data := sr.buf[:n]
	if _, err := io.ReadFull(sr.r, data); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("netflow: reading framed datagram: %w", err)
	}
	return Decode(data)
}
