package main

import (
	"io"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/netflow"
)

// repClock decides how many repetitions a timed section runs: warm-up
// repetitions first (untimed: identity tables fill, the window opens,
// the heap settles), then timed ones until the budget is spent or the
// cap is reached. It stamps the end of every repetition, which is what
// the per-repetition medians are computed from.
type repClock struct {
	warm   int
	min    int // timed repetitions that run whatever the budget says
	max    int // cap on warm+timed; sizes the daemon's history ring
	budget time.Duration

	calls   int
	started time.Time   // end of warm-up
	ends    []time.Time // ends[r] = end of repetition r, warm-up included
}

// fixedReps is a clock that runs exactly n repetitions.
func fixedReps(n int) *repClock { return &repClock{min: n, max: n} }

// next is called at the start of every repetition: it stamps the end of
// the previous one and reports whether another should run.
func (c *repClock) next() bool {
	now := time.Now()
	if c.calls > 0 {
		c.ends = append(c.ends, now)
	}
	c.calls++
	done := len(c.ends)
	if done == c.warm {
		c.started = now
	}
	if done >= c.max {
		return false
	}
	return done-c.warm < c.min || now.Sub(c.started) < c.budget
}

// timed returns the wall time of every timed repetition.
func (c *repClock) timed() []time.Duration {
	var out []time.Duration
	for r := max(c.warm, 1); r < len(c.ends); r++ {
		out = append(out, c.ends[r].Sub(c.ends[r-1]))
	}
	return out
}

// timedWall is the wall time from the end of warm-up to the end of the
// last repetition.
func (c *repClock) timedWall() time.Duration {
	return c.ends[len(c.ends)-1].Sub(c.started)
}

// wireSource replays a wire set as an agg.RecordSource: the bench-side
// twin of the daemon's read loop (DecodeInto a reused datagram,
// Attribute every record against the table), with no socket and no
// demultiplexing: every datagram of the wire set belongs to its link.
type wireSource struct {
	table *bgp.Table
	wire  *wireSet
	clock *repClock

	rep, next int
	eof       bool
	dg        netflow.Datagram
	batch     []agg.Record
	pos       int

	records, unrouted, decodeErrors uint64
}

func newWireSource(table *bgp.Table, wire *wireSet, clock *repClock) *wireSource {
	return &wireSource{table: table, wire: wire, clock: clock, rep: -1, next: wire.datagrams(),
		batch: make([]agg.Record, 0, netflow.MaxRecordsPerDatagram)}
}

// Next implements agg.RecordSource.
func (s *wireSource) Next() (agg.Record, error) {
	for s.pos >= len(s.batch) {
		if s.eof {
			return agg.Record{}, io.EOF
		}
		if s.next == s.wire.datagrams() {
			if !s.clock.next() {
				s.eof = true
				continue
			}
			s.next = 0
			s.rep++
		}
		s.fill(s.wire.datagram(s.next, s.rep))
		s.next++
	}
	rec := s.batch[s.pos]
	s.pos++
	return rec, nil
}

// fill decodes one datagram and attributes its records into the batch.
func (s *wireSource) fill(raw []byte) {
	s.batch, s.pos = s.batch[:0], 0
	if err := netflow.DecodeInto(raw, &s.dg); err != nil {
		s.decodeErrors++
		return
	}
	for i := range s.dg.Records {
		s.records++
		rec, ok := netflow.Attribute(s.table, s.dg.Header, s.dg.Records[i])
		if !ok {
			s.unrouted++
			continue
		}
		s.batch = append(s.batch, rec)
	}
}
