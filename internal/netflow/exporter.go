package netflow

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/packet"
)

// flowKey is the v5 flow aggregation key.
type flowKey struct {
	src, dst netip.Addr
	sport    uint16
	dport    uint16
	proto    uint8
}

// cacheEntry is one active flow in the exporter's cache.
type cacheEntry struct {
	first, last time.Time
	packets     uint32
	octets      uint32
}

// ExporterConfig tunes the flow cache.
type ExporterConfig struct {
	// ActiveTimeout flushes long-running flows so their bytes appear in
	// the collector with bounded delay. Default 60 s (routers commonly
	// used 30–120 s).
	ActiveTimeout time.Duration
	// InactiveTimeout expires idle flows. Default 15 s.
	InactiveTimeout time.Duration
	// EngineID labels the exporter in datagram headers.
	EngineID uint8
}

func (c *ExporterConfig) defaults() {
	if c.ActiveTimeout == 0 {
		c.ActiveTimeout = 60 * time.Second
	}
	if c.InactiveTimeout == 0 {
		c.InactiveTimeout = 15 * time.Second
	}
}

// Exporter turns a packet stream into NetFlow v5 datagrams, modelling a
// router's flow cache: packets matching an entry update it; entries are
// flushed on active/inactive timeout and batched into datagrams of up to
// 30 records. Emit order is deterministic for a deterministic packet
// stream.
type Exporter struct {
	cfg   ExporterConfig
	cache map[flowKey]*cacheEntry
	// order preserves cache insertion order so expiry scans are
	// deterministic (map iteration is not).
	order []flowKey
	// deadline is a lower bound on when the first cached flow times out
	// (zero with the cache empty): the expiry scan runs only once now
	// passes it, not on every packet.
	deadline time.Time

	// boot anchors SysUptime: the first packet's time.
	boot     time.Time
	now      time.Time
	pending  []Record
	sequence uint32
	emit     func(*Datagram) error
	scratch  []byte
}

// NewExporter creates an exporter delivering datagrams to emit.
func NewExporter(cfg ExporterConfig, emit func(*Datagram) error) *Exporter {
	cfg.defaults()
	return &Exporter{
		cfg:   cfg,
		cache: make(map[flowKey]*cacheEntry),
		emit:  emit,
	}
}

// AddPacket accounts one decoded packet at time ts. Packets must be
// presented in non-decreasing time order.
func (e *Exporter) AddPacket(ts time.Time, sum packet.Summary) error {
	if !sum.DstIP.Is4() || !sum.SrcIP.Is4() {
		return nil // v5 is IPv4-only; silently skip, as routers did
	}
	if e.boot.IsZero() {
		e.boot = ts
	}
	e.now = ts
	if err := e.expire(); err != nil {
		return err
	}
	k := flowKey{sum.SrcIP, sum.DstIP, sum.SrcPort, sum.DstPort, sum.Protocol}
	ent, ok := e.cache[k]
	if !ok {
		ent = &cacheEntry{first: ts, last: ts}
		e.cache[k] = ent
		e.order = append(e.order, k)
		e.lowerDeadline(ent)
	}
	ent.last = ts
	ent.packets++
	ent.octets += uint32(sum.WireLength)
	return nil
}

// expire flushes entries past their timeouts, scanning the cache only
// once now has passed the deadline bound. A packet only ever moves its
// entry's deadline later, so the bound stays a bound between scans.
func (e *Exporter) expire() error {
	if !e.deadline.IsZero() && e.now.After(e.deadline) {
		kept := e.order[:0]
		e.deadline = time.Time{}
		for _, k := range e.order {
			ent := e.cache[k]
			idle := e.now.Sub(ent.last) > e.cfg.InactiveTimeout
			long := e.now.Sub(ent.first) > e.cfg.ActiveTimeout
			if idle || long {
				e.flushEntry(k, ent)
				delete(e.cache, k)
				continue
			}
			kept = append(kept, k)
			e.lowerDeadline(ent)
		}
		e.order = kept
	}
	if len(e.pending) >= MaxRecordsPerDatagram {
		return e.sendPending(MaxRecordsPerDatagram)
	}
	return nil
}

// lowerDeadline folds ent's expiry instant into the deadline bound.
func (e *Exporter) lowerDeadline(ent *cacheEntry) {
	d := ent.last.Add(e.cfg.InactiveTimeout)
	if a := ent.first.Add(e.cfg.ActiveTimeout); a.Before(d) {
		d = a
	}
	if e.deadline.IsZero() || d.Before(e.deadline) {
		e.deadline = d
	}
}

// flushEntry converts a cache entry to a pending record.
func (e *Exporter) flushEntry(k flowKey, ent *cacheEntry) {
	e.pending = append(e.pending, Record{
		SrcAddr: k.src, DstAddr: k.dst,
		Packets: ent.packets, Octets: ent.octets,
		First:   e.uptime(ent.first),
		Last:    e.uptime(ent.last),
		SrcPort: k.sport,
		DstPort: k.dport,
		Proto:   k.proto,
	})
}

func (e *Exporter) uptime(ts time.Time) uint32 {
	d := ts.Sub(e.boot)
	if d < 0 {
		return 0
	}
	return uint32(d / time.Millisecond)
}

// sendPending emits up to n pending records as one datagram.
func (e *Exporter) sendPending(n int) error {
	if n > len(e.pending) {
		n = len(e.pending)
	}
	if n == 0 {
		return nil
	}
	d := &Datagram{
		Header: Header{
			Count:        uint16(n),
			SysUptime:    e.uptime(e.now),
			UnixSecs:     uint32(e.now.Unix()),
			UnixNsecs:    uint32(e.now.Nanosecond()),
			FlowSequence: e.sequence,
			EngineID:     e.cfg.EngineID,
		},
		Records: e.pending[:n:n],
	}
	e.sequence += uint32(n)
	// Deliver before compacting: d.Records aliases the region the
	// compaction below overwrites.
	if e.emit != nil {
		if err := e.emit(d); err != nil {
			return fmt.Errorf("netflow: emitting datagram: %w", err)
		}
	}
	e.pending = append(e.pending[:0], e.pending[n:]...)
	return nil
}

// Flush expires every cached flow and delivers all pending records. Call
// it at end of stream.
func (e *Exporter) Flush() error {
	for _, k := range e.order {
		if ent, ok := e.cache[k]; ok {
			e.flushEntry(k, ent)
			delete(e.cache, k)
		}
	}
	e.order = e.order[:0]
	e.deadline = time.Time{}
	for len(e.pending) > 0 {
		if err := e.sendPending(MaxRecordsPerDatagram); err != nil {
			return err
		}
	}
	return nil
}

// CachedFlows reports the current flow-cache size.
func (e *Exporter) CachedFlows() int { return len(e.cache) }

// Sequence returns the cumulative number of exported records.
func (e *Exporter) Sequence() uint32 { return e.sequence }
