package agg

import (
	"net/netip"
	"testing"
	"time"
)

// TestStreamWatermarkLag: the watermark is the newest bit-carrying
// instant accepted, and the lag is its distance past the sealed edge.
func TestStreamWatermarkLag(t *testing.T) {
	const iv = time.Minute
	acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: iv, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.0.0.0/24")
	if acc.WatermarkLag() != 0 {
		t.Fatalf("fresh accumulator lag=%v", acc.WatermarkLag())
	}

	// A point record 30s in: watermark 30s past the sealed edge (0).
	if err := acc.Add(Record{Prefix: p, Time: start.Add(30 * time.Second), Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	if got := acc.WatermarkLag(); got != 30*time.Second {
		t.Errorf("lag = %v, want 30s", got)
	}

	// A span record's watermark is its last bit-carrying instant.
	if err := acc.Add(Record{Prefix: p, Time: start.Add(40 * time.Second), Span: 20 * time.Second, Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	if got := acc.WatermarkLag(); got != time.Minute-time.Nanosecond {
		t.Errorf("lag = %v, want 1m0s-1ns", got)
	}

	// An out-of-order record must not move the watermark backwards.
	if err := acc.Add(Record{Prefix: p, Time: start.Add(10 * time.Second), Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	if got := acc.WatermarkLag(); got != time.Minute-time.Nanosecond {
		t.Errorf("lag after reordered record = %v, want unchanged", got)
	}

	// Advancing into interval 3 seals interval 0: the sealed edge moves
	// under the watermark.
	newest := start.Add(3*iv + 15*time.Second)
	if err := acc.Add(Record{Prefix: p, Time: newest, Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	if acc.Stats().Closed != 1 {
		t.Fatalf("Closed = %d, want 1", acc.Stats().Closed)
	}
	lag := newest.Sub(start.Add(iv))
	if got := acc.WatermarkLag(); got != lag {
		t.Errorf("lag = %v, want %v", got, lag)
	}

	// A far-future (corrupt) timestamp must not poison the watermark.
	if err := acc.Add(Record{Prefix: p, Time: start.Add(100000 * iv), Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	if acc.Stats().FarFuture != 1 {
		t.Fatalf("FarFuture = %d", acc.Stats().FarFuture)
	}
	if got := acc.WatermarkLag(); got != lag {
		t.Errorf("corrupt record moved the watermark: lag %v, want %v", got, lag)
	}

	// Flush seals through the watermark: lag clamps to zero.
	if err := acc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := acc.WatermarkLag(); got != 0 {
		t.Errorf("post-flush lag = %v, want 0", got)
	}
}

// TestStreamWatermarkPreOrigin: records before an explicit Start are
// dropped as late and must not touch the watermark (their end interval
// is -1, before the far-future gate).
func TestStreamWatermarkPreOrigin(t *testing.T) {
	acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.0.0.0/24")
	if err := acc.Add(Record{Prefix: p, Time: start.Add(-time.Hour), Bits: 1e4}); err != nil {
		t.Fatal(err)
	}
	if acc.Stats().Late != 1 {
		t.Fatalf("Late = %d", acc.Stats().Late)
	}
	if acc.WatermarkLag() != 0 {
		t.Errorf("pre-origin record set watermark: lag=%v", acc.WatermarkLag())
	}
}
