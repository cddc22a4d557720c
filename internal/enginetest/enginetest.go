// Package enginetest generates the record sequences the byte-identity
// chain (ARCHITECTURE.md, Contracts) is checked on, and holds what the
// engine's paths are checked against: Reference, the batch series and
// the accumulator counters a record sequence must give, and Sequential,
// one core pipeline stepped over that series. Only _test.go files import
// it — a root test fails if any other file does — so the references stay
// apart from the code they check.
package enginetest

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/netflow"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// Shape flags, shape[0] of Generate. Each adds one kind of record to the
// sequence; the other shape bytes size it.
const (
	// Disorder moves records up to seven places out of order and repeats
	// some verbatim.
	Disorder = 1 << iota
	// SpanEdges adds explicit zero spans, negative spans and spans of
	// math.MaxInt64.
	SpanEdges
	// ClockEdges adds spans ending exactly on an interval boundary,
	// records before the origin (whole, and spans reaching across it),
	// records behind the sealed edge (whole and clipped), records past
	// agg.DefaultStreamMaxGap (a far-future first record among them), an
	// interval without records and, off v5, timestamps three centuries
	// either side of the origin.
	ClockEdges
	// ZeroBits adds records without bits.
	ZeroBits
	// Keys mixes Record.Key 0, keys a flow keeps, keys several flows
	// share and keys that move from flow to flow.
	Keys
	// Churn adds flows that go quiet for 1 to 4W+19 intervals — some
	// back before their rows are released, others evicted and admitted
	// again — and flows that first appear one by one through the second
	// half, taking recycled IDs.
	Churn
	// Cohorts adds two cohorts idle for exactly 4W−1 and 4W intervals of
	// the shaped latent window W: latent heat's eviction edge.
	Cohorts
	// V5 makes every record representable in NetFlow v5 — millisecond
	// times and spans, whole octets, routed by Table — and adds unrouted
	// records to Wire.
	V5
)

// Case is one generated link: its records and the settings every path
// runs them under.
type Case struct {
	// Start anchors interval 0; zero aligns it to the first record.
	Start    time.Time
	Interval time.Duration
	// Window is the accumulator's open-interval count.
	Window int
	// Records is the routed record sequence in arrival order.
	Records []agg.Record
	// Specs are the schemes every path runs: every registered
	// detector×classifier example and latent heat at the shaped window
	// W — two detectors sharing it, one at W+1.
	Specs []*scheme.Spec
	// Producers is how many goroutines feed the concurrent live leg.
	Producers int
	// Table routes every record of a V5 case; nil otherwise.
	Table *bgp.Table
	// Wire is Records with unrouted records among them, the sequence a v5
	// exporter sends; nil unless V5. An unrouted record's Prefix is a /32
	// in 192.0.2.0/24, which Table does not route.
	Wire []agg.Record
}

// Epoch is the origin of every generated case with an explicit Start.
var Epoch = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

// Origin returns the left edge of interval 0: Start, or the first
// record's time when Start is zero.
func (c Case) Origin() time.Time {
	if c.Start.IsZero() && len(c.Records) > 0 {
		return c.Records[0].Time
	}
	return c.Start
}

// Generate builds the case seed and shape describe. shape[0] holds the
// flags above; the bytes after it size the case, and a missing byte reads
// as zero:
//
//	shape[1]  4 + shape[1]%37 intervals of traffic
//	shape[2]  8 + shape[2]%57 flows
//	shape[3]  accumulator window 1 + shape[3]%6
//	shape[4]  latent window W = 1 + shape[4]%3 of the shaped specs
//	shape[5]  bit 0: zero Start; bit 1 is ignored; bits 2–3: MinFlows 0
//	          (core's 16), 1, 4 or 8; bits 4–5: 2 to 5 producers
func Generate(seed int64, shape []byte) Case {
	at := func(i int) int {
		if i < len(shape) {
			return int(shape[i])
		}
		return 0
	}
	flags, opts := at(0), at(5)
	g := &gen{
		rng:       rand.New(rand.NewSource(seed)),
		flags:     flags,
		iv:        time.Minute,
		intervals: 4 + at(1)%37,
		flows:     8 + at(2)%57,
		latent:    1 + at(4)%3,
	}
	c := Case{
		Start:     Epoch,
		Interval:  g.iv,
		Window:    1 + at(3)%6,
		Producers: 2 + opts>>4&3,
	}
	if opts&1 != 0 {
		c.Start = time.Time{}
	}
	g.traffic(c.Window)
	if flags&Disorder != 0 {
		g.disorder()
	}
	if flags&ClockEdges != 0 && !c.Start.IsZero() {
		// Under an explicit Start the far-future gate must hold before any
		// bits have landed.
		g.recs = append([]agg.Record{g.record(0, g.intervals+agg.DefaultStreamMaxGap+5, 0, 0, 1e4)}, g.recs...)
	}
	c.Records = g.recs
	c.Specs = specs(g.latent, [4]int{0, 1, 4, 8}[opts>>2&3])
	if flags&V5 != 0 {
		c.Table, c.Wire = g.route()
	}
	return c
}

// gen is Generate's state: the shape's sizes and the records so far.
type gen struct {
	rng       *rand.Rand
	flags     int
	iv        time.Duration
	intervals int
	flows     int
	latent    int
	recs      []agg.Record
}

func (g *gen) has(flag int) bool { return g.flags&flag != 0 }

// flowPrefix is flow f's prefix: /20 to /24, disjoint for every f < 4096.
func flowPrefix(f int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(f >> 4), byte(f << 4), 0}), 20+f%5)
}

// record builds one record of flow f placed off into interval t (off is
// rounded to milliseconds under V5), spanning span with the given bits
// (whole octets under V5).
func (g *gen) record(f, t int, off, span time.Duration, bits float64) agg.Record {
	at := time.Duration(t)*g.iv + off
	if g.has(V5) {
		at, span = at.Truncate(time.Millisecond), span.Truncate(time.Millisecond)
		bits = 8 * math.Floor(bits/8)
	}
	key := uint32(f + 1)
	if g.has(Keys) {
		switch f % 4 {
		case 0:
			key = 0
		case 2: // shared by eight flows
			key = uint32(1000 + f/8)
		case 3: // moves between flows from interval to interval
			key = uint32(2000 + (t+f)%3)
		}
	}
	return agg.Record{Prefix: flowPrefix(f), Time: Epoch.Add(at), Span: span, Bits: bits, Key: key}
}

// active reports whether flow f sends in interval t.
func (g *gen) active(f, t int) bool {
	switch {
	case f < 4: // anchors
		return true
	case g.has(Cohorts) && f < 10: // idle 4W−1 (f < 7) or 4W intervals after every two active ones
		idle := 4*g.latent - 1 + (f-4)/3
		return t%(idle+2) < 2
	case g.has(Churn) && f < 10+g.flows/4:
		quiet := 1 + f*7%(4*g.latent+20)
		return t%(quiet+3) < 3
	case g.has(Churn) && f >= g.flows: // late arrivals, two intervals apart
		return t > g.intervals/2+2*(f-g.flows)
	}
	return g.rng.Float64() < 0.75
}

// traffic lays down the link's ordinary records interval by interval,
// with the shape's edge records among them.
func (g *gen) traffic(window int) {
	nflows := g.flows
	if g.has(Churn) {
		nflows += 8
	}
	rate := make([]float64, nflows)
	for f := range rate {
		rate[f] = 2e4 * stats.Exp(g.rng.NormFloat64())
		if f%7 == 0 {
			rate[f] = 2e5 * (1 + 4*g.rng.Float64())
		}
	}
	empty := -1
	if g.has(ClockEdges) {
		empty = g.intervals / 3
	}
	for t := 0; t < g.intervals; t++ {
		if t == empty && t > 0 {
			continue
		}
		from := len(g.recs)
		for f := 0; f < nflows; f++ {
			if !g.active(f, t) {
				continue
			}
			n := 1 + g.rng.Intn(2)
			for k := 0; k < n; k++ {
				off := time.Duration(g.rng.Int63n(int64(g.iv)))
				var span time.Duration
				if g.rng.Float64() < 0.3 { // into the next interval at most
					span = time.Duration(g.rng.Int63n(int64(g.iv)))
				}
				bits := rate[f] * g.iv.Seconds() / float64(n)
				if g.has(ZeroBits) && g.rng.Float64() < 0.05 {
					bits = 0
				}
				g.recs = append(g.recs, g.record(f, t, off, span, bits))
			}
		}
		// In order of their ends, as a flow cache exports them: the window
		// then drops nothing the shape did not put behind it.
		slices.SortStableFunc(g.recs[from:], func(a, b agg.Record) int {
			return a.Time.Add(a.Span).Compare(b.Time.Add(b.Span))
		})
		g.edges(t, window)
	}
}

// edges appends interval t's edge records, each with some probability.
func (g *gen) edges(t, window int) {
	f := g.rng.Intn(g.flows)
	maybe := func(flag int, p float64) bool { return g.has(flag) && g.rng.Float64() < p }
	if maybe(SpanEdges, 0.5) {
		g.recs = append(g.recs, g.record(f, t, g.iv/3, 0, 3e4), g.record(f, t, g.iv/2, -g.iv, 5e4))
		if !g.has(V5) {
			g.recs = append(g.recs, g.record(f, t, g.iv/4, math.MaxInt64, 7e4))
		}
	}
	if !g.has(ClockEdges) {
		return
	}
	if maybe(ClockEdges, 0.4) { // ends exactly on a boundary
		g.recs = append(g.recs, g.record(f, t, g.iv/2, g.iv/2, 6e4), g.record(f, t, 0, g.iv, 9e4))
	}
	if maybe(ClockEdges, 0.2) { // before the origin: whole, across it, ending on it
		g.recs = append(g.recs, g.record(f, 0, -time.Second, 0, 2e4),
			g.record(f, 0, -g.iv/4, g.iv, 8e4), g.record(f, -1, 0, g.iv, 4e4))
	}
	if t > window+1 && maybe(ClockEdges, 0.3) { // behind the sealed edge: whole, and clipped by it
		back := t - window - 1
		g.recs = append(g.recs, g.record(f, back, g.iv/3, 0, 5e4), g.record(f, back, g.iv/2, time.Duration(window+1)*g.iv, 1e5))
	}
	if maybe(ClockEdges, 0.1) { // past the gap: dropped whatever else has landed
		g.recs = append(g.recs, g.record(f, t+agg.DefaultStreamMaxGap+3+g.rng.Intn(3), 0, 0, 3e4))
	}
	if !g.has(V5) && maybe(ClockEdges, 0.05) { // three centuries either side
		far := time.Duration(math.MaxInt64)
		for _, r := range []agg.Record{
			{Time: Epoch.AddDate(300, 0, 0), Bits: 1},
			{Time: Epoch.AddDate(300, 0, 0), Span: time.Hour, Bits: 2},
			{Time: Epoch.AddDate(-300, 0, 0), Bits: 4},
			{Time: Epoch.AddDate(-300, 0, 0), Span: far, Bits: 8},
		} {
			r.Prefix = flowPrefix(f)
			g.recs = append(g.recs, r)
		}
	}
}

// disorder swaps records up to seven places apart and repeats some, the
// first record staying first (under a zero Start it is the origin).
func (g *gen) disorder() {
	for i := 1; i < len(g.recs); i++ {
		if g.rng.Float64() < 0.3 {
			j := min(i+g.rng.Intn(8), len(g.recs)-1)
			g.recs[i], g.recs[j] = g.recs[j], g.recs[i]
		}
		if g.rng.Float64() < 0.05 {
			g.recs = slices.Insert(g.recs, min(i+1+g.rng.Intn(4), len(g.recs)), g.recs[i])
		}
	}
}

// Datagrams encodes a V5 case's Wire as NetFlow v5 datagrams of up to 30
// records, every header anchoring uptime 2³¹ ms at Epoch, so a record's
// First and Last are its time and end in milliseconds from there. A
// record's destination is its prefix's first address.
func (c Case) Datagrams() [][]byte {
	const uptime = 1 << 31
	var out [][]byte
	for i := 0; i < len(c.Wire); i += netflow.MaxRecordsPerDatagram {
		chunk := c.Wire[i:min(i+netflow.MaxRecordsPerDatagram, len(c.Wire))]
		dg := netflow.Datagram{Header: netflow.Header{
			Count: uint16(len(chunk)), SysUptime: uptime, FlowSequence: uint32(i),
			UnixSecs: uint32(Epoch.Unix()), UnixNsecs: uint32(Epoch.Nanosecond()),
		}}
		for _, rec := range chunk {
			first := uptime + rec.Time.Sub(Epoch).Milliseconds()
			dg.Records = append(dg.Records, netflow.Record{
				SrcAddr: netip.MustParseAddr("10.255.0.1"), DstAddr: rec.Prefix.Addr(),
				NextHop: netip.MustParseAddr("10.255.0.254"),
				Packets: 1, Octets: uint32(rec.Bits / 8), Proto: 6,
				First: uint32(first), Last: uint32(first + rec.Span.Milliseconds()),
			})
		}
		wire, err := dg.Encode(nil)
		if err != nil {
			panic(err)
		}
		out = append(out, wire)
	}
	return out
}

// route builds a V5 case's routing table — one route per flow prefix —
// and its wire sequence: the routed records with unrouted ones, some of
// them outside the window too, spread among them.
func (g *gen) route() (*bgp.Table, []agg.Record) {
	tb := bgp.NewTable()
	seen := map[netip.Prefix]bool{}
	var wire []agg.Record
	for i, r := range g.recs {
		if !seen[r.Prefix] {
			seen[r.Prefix] = true
			if err := tb.Insert(bgp.Route{Prefix: r.Prefix, OriginAS: 64512}); err != nil {
				panic(err)
			}
		}
		wire = append(wire, r)
		if g.rng.Float64() < 0.08 {
			t := g.rng.Intn(g.intervals+2) - 1
			if g.rng.Float64() < 0.2 {
				t += agg.DefaultStreamMaxGap + 3
			}
			addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
			wire = append(wire, agg.Record{
				Prefix: netip.PrefixFrom(addr, 32),
				Time:   Epoch.Add(time.Duration(t) * g.iv),
				Bits:   8 * float64(1+g.rng.Intn(1e4)),
			})
		}
	}
	return tb, wire
}

// specs returns the schemes of a case: every registry example pair and
// latent heat at window w, all at minFlows.
func specs(w, minFlows int) []*scheme.Spec {
	var out []*scheme.Spec
	for _, det := range scheme.DetectorExamples() {
		for _, cls := range scheme.ClassifierExamples() {
			out = append(out, scheme.MustParse(det+"+"+cls))
		}
	}
	out = append(out,
		scheme.MustParse(fmt.Sprintf("load+latent:window=%d", w)),
		scheme.MustParse(fmt.Sprintf("aest+latent:window=%d", w)),
		scheme.MustParse(fmt.Sprintf("fixed:theta=150000+latent:window=%d", w+1)))
	for _, sp := range out {
		sp.MinFlows = minFlows
	}
	return out
}
