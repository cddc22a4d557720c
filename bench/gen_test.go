package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/netflow"
)

func testTable(t *testing.T) *bgp.Table {
	t.Helper()
	table, err := bgp.Generate(bgp.GenConfig{Routes: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return table
}

var testShape = linkShape{links: 3, flows: 96}

func TestWireIsByteIdenticalForEqualSeeds(t *testing.T) {
	table := testTable(t)
	a, err := buildWire(table, testShape, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildWire(table, testShape, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.buf, b.buf) || a.records != b.records || a.datagrams() != b.datagrams() {
		t.Fatal("equal seeds produced different wire sets")
	}
	c, err := buildWire(table, testShape, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.buf, c.buf) {
		t.Fatal("different seeds produced the same wire set")
	}
}

func TestWireRecordsAreWellFormed(t *testing.T) {
	table := testTable(t)
	w, err := buildWire(table, testShape, 4)
	if err != nil {
		t.Fatal(err)
	}
	var dg netflow.Datagram
	records, prev := 0, int16(0)
	for i := 0; i < w.datagrams(); i++ {
		if err := netflow.DecodeInto(w.datagram(i, 0), &dg); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if int(dg.Header.EngineID) != int(w.link[i]) || int(w.link[i]) >= testShape.links {
			t.Fatalf("datagram %d: engine %d, index says %d", i, dg.Header.EngineID, w.link[i])
		}
		if w.interval[i] < prev {
			t.Fatalf("datagram %d: interval %d after %d", i, w.interval[i], prev)
		}
		prev = w.interval[i]
		lo := traceStart.Add(time.Duration(w.interval[i]) * benchInterval)
		for _, r := range dg.Records {
			records++
			if r.Octets == 0 || r.Octets == math.MaxUint32 {
				t.Fatalf("datagram %d: octets %d (empty or clamped)", i, r.Octets)
			}
			first, last := dg.Header.Timestamps(r)
			if !last.After(first) || first.Before(lo) || !last.Before(lo.Add(benchInterval)) {
				t.Fatalf("datagram %d: span [%v, %v] not a non-zero span inside interval %d", i, first, last, w.interval[i])
			}
			if _, ok := netflow.Attribute(table, dg.Header, r); !ok {
				t.Fatalf("datagram %d: record to %v is unrouted", i, r.DstAddr)
			}
		}
	}
	if records != w.records {
		t.Fatalf("decoded %d records, wire set says %d", records, w.records)
	}
}

func TestFlowRecordOctetsNeverOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := netip.MustParsePrefix("192.0.2.0/24")
	// A volume no uint32 can hold must clamp, not wrap.
	for _, r := range appendFlowRecords(nil, rng, prefix, 1e13, 0) {
		if r.Octets != math.MaxUint32 {
			t.Fatalf("octets %d, want clamp to MaxUint32", r.Octets)
		}
	}
	// An ordinary volume is split into recordsPerFlow parts near bits/8.
	const bits = 8 * 400000
	var total float64
	recs := appendFlowRecords(nil, rng, prefix, bits, 0)
	for _, r := range recs {
		total += float64(r.Octets)
	}
	if len(recs) != recordsPerFlow || total < 0.75*bits/8 || total > 1.25*bits/8 {
		t.Fatalf("%d records carrying %v octets for %v", len(recs), total, bits/8)
	}
	// A volume below one octet per record still yields one octet each.
	for _, r := range appendFlowRecords(nil, rng, prefix, 1, 0) {
		if r.Octets != 1 {
			t.Fatalf("octets %d, want 1", r.Octets)
		}
	}
}

func TestWireSourceReplaysRepetitionsOnAdvancingClock(t *testing.T) {
	table := testTable(t)
	w, err := buildWire(table, linkShape{links: 1, flows: 96}, 4)
	if err != nil {
		t.Fatal(err)
	}
	clock := fixedReps(3)
	src := newWireSource(table, w, clock)
	var n int
	var first, last time.Time
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			first = rec.Time
		}
		last = rec.Time
		n++
	}
	if n != 3*w.records || src.unrouted != 0 || src.decodeErrors != 0 || len(clock.ends) != 3 {
		t.Fatalf("%d records (%d unrouted, %d undecodable) over %d repetitions, want %d over 3", n, src.unrouted, src.decodeErrors, len(clock.ends), 3*w.records)
	}
	span := time.Duration(repSpanSecs) * time.Second
	if d := last.Sub(first); d < 2*span || d > 3*span {
		t.Fatalf("records span %v, want between 2 and 3 trace spans of %v", d, span)
	}
}

func TestRepClock(t *testing.T) {
	c := &repClock{warm: 2, min: 3, max: 10, budget: 0}
	reps := 0
	for c.next() {
		reps++
	}
	if reps != 5 || len(c.ends) != 5 || len(c.timed()) != 3 {
		t.Fatalf("ran %d repetitions (%d stamped, %d timed), want 5, 5, 3", reps, len(c.ends), len(c.timed()))
	}
	c = &repClock{warm: 1, min: 1, max: 4, budget: time.Hour}
	reps = 0
	for c.next() {
		reps++
	}
	if reps != 4 {
		t.Fatalf("ran %d repetitions under an unspendable budget, want the cap of 4", reps)
	}
}
