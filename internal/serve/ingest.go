package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/netflow"
)

// reader is one ingest goroutine's private state: its socket, a receive
// buffer, the netflow decode scratch, the attributed-record batch and
// the links it has dispatched to — everything the read→decode→dispatch
// path touches per datagram lives here, so the steady state allocates
// nothing, takes no lock, and readers share only the per-link state they
// demultiplex into.
type reader struct {
	index int
	conn  *net.UDPConn // the reader's own socket

	buf   []byte                 // datagram receive buffer (max UDP payload)
	dg    netflow.Datagram       // decode scratch; Records reused across datagrams
	recs  []agg.Record           // attributed-record batch handed to SendBatch
	links map[linkKey]*LinkState // the store's links this reader has seen, by wire key

	// Per-reader counters, exported through /metrics and /links.
	datagrams    atomic.Uint64
	records      atomic.Uint64
	decodeErrors atomic.Uint64

	// rcvbuf is conn's effective kernel receive buffer (post-clamp
	// SO_RCVBUF readback).
	rcvbuf int
}

func newReader(index int, conn *net.UDPConn, rcvbuf int) *reader {
	return &reader{
		index:  index,
		conn:   conn,
		buf:    make([]byte, 1<<16),
		recs:   make([]agg.Record, 0, netflow.MaxRecordsPerDatagram),
		links:  map[linkKey]*LinkState{},
		rcvbuf: rcvbuf,
	}
}

// reusePortControl is the net.ListenConfig.Control hook that lets
// several sockets bind one address. A variable so that a test can stand
// in for a platform without SO_REUSEPORT.
var reusePortControl = controlReusePort

// listenUDP binds the ingest sockets, one per reader: n SO_REUSEPORT
// sockets sharing addr — each with its own kernel buffer, the kernel
// hashing each exporter's 4-tuple to a fixed socket — or, for n = 1 and
// where the platform lacks the option (logged), one plain socket. Readers
// never share a socket: two of them could decode consecutive datagrams
// of one exporter and hand them to its link out of order. Each socket's
// receive buffer is requested at DefaultReadBuffer; the caller reads back
// what was granted per conn.
func listenUDP(addr string, n int, logf func(string, ...any)) (conns []*net.UDPConn, err error) {
	single := func() ([]*net.UDPConn, error) {
		uaddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("serve: resolving UDP address: %w", err)
		}
		c, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return nil, fmt.Errorf("serve: listening on UDP: %w", err)
		}
		_ = c.SetReadBuffer(DefaultReadBuffer)
		return []*net.UDPConn{c}, nil
	}
	if n <= 1 {
		return single()
	}
	lc := net.ListenConfig{Control: reusePortControl}
	first, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		logf("serve: no SO_REUSEPORT socket (%v): one reader on one socket instead of %d", err, n)
		return single()
	}
	conns = []*net.UDPConn{first.(*net.UDPConn)}
	// Subsequent sockets must bind the concrete port the first one got
	// (addr may have asked for ":0").
	bound := first.LocalAddr().String()
	for len(conns) < n {
		pc, err := lc.ListenPacket(context.Background(), "udp", bound)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("serve: listening on UDP (reuseport socket %d): %w", len(conns), err)
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	for _, c := range conns {
		_ = c.SetReadBuffer(DefaultReadBuffer)
	}
	return conns, nil
}

// linkKey identifies a link on the dispatch fast path without building
// the string ID: the exporter's (unmapped) source address plus the v5
// engine ID. Comparable, so the reader's lookup allocates nothing.
type linkKey struct {
	addr   netip.Addr
	engine uint8
}

// link returns the exporter's link: one lookup in the reader's own map
// once the reader has seen it. On the reader's first sight it is taken
// from the store, or created under the store's lock, so exactly one
// pipeline is built per link however many readers race.
func (d *Daemon) link(r *reader, key linkKey) *LinkState {
	if ls := r.links[key]; ls != nil {
		return ls
	}
	id := linkID(key.addr, key.engine)
	ls := d.store.create(id, func() *LinkState { return d.newLink(id) })
	r.links[key] = ls
	return ls
}

// newLink builds a link and its pipeline, the link being the pipeline's
// result hook. The hook reads ls.lp only after a record has reached the
// pipeline, which the link's publication orders after the assignment. A
// link whose pipeline cannot be built is returned failed, so it is
// published once and its datagrams are counted as dropped.
func (d *Daemon) newLink(id string) *LinkState {
	ls := newLinkState(id, d.cfg.History)
	lp, err := engine.NewLivePipeline(engine.LiveLink{
		ID:       id,
		Start:    d.cfg.Start,
		Interval: d.cfg.Interval,
		Window:   d.cfg.Window,
		Buffer:   d.cfg.Buffer,
		Config:   d.cfg.Scheme.Factory(),
		OnResult: ls.sealed,
	})
	if err != nil {
		ls.Fail(err)
		d.cfg.Logf("serve: new link %s failed: %v", id, err)
		return ls
	}
	ls.lp = lp
	d.cfg.Logf("serve: new link %s", id)
	return ls
}

// dispatch demultiplexes one decoded datagram: resolve the link
// (lock-free once the reader has seen it), attribute its records against
// the BGP table into the reader's reusable batch — the datagram's
// destinations looked up together, one level of the routing index at a
// time — and hand the batch to the link's pipeline: one copy and one
// queue operation per datagram, not per record. REUSEPORT hashes a sender's
// 4-tuple to a fixed socket, so a link exported from one source port is
// dispatched by one reader and keeps its arrival order at any reader
// count. A link whose engine ID arrives from several source ports is
// dispatched by several readers at once; SendBatch is safe under that,
// but the link's datagrams can then reach it out of arrival order.
func (d *Daemon) dispatch(r *reader, ap netip.AddrPort, dg *netflow.Datagram) {
	ls := d.link(r, linkKey{addr: ap.Addr().Unmap(), engine: dg.Header.EngineID})
	recs, unrouted := netflow.AttributeDatagram(d.cfg.Table, dg, r.recs[:0])
	r.recs = recs
	var routed, dropped int
	if ls.lp == nil || ls.Failed() { // no pipeline was built, or it failed
		dropped = len(recs)
	} else if sent, err := ls.lp.SendBatch(recs); err != nil {
		routed, dropped = sent, len(recs)-sent
		ls.Fail(err)
		d.cfg.Logf("serve: link %s failed: %v", ls.id, err)
	} else {
		routed = sent
	}
	ls.ObserveDatagram(len(dg.Records), routed, unrouted, dropped)
}

// readLoop is one reader's loop: read, decode into the private scratch,
// dispatch. N of these run concurrently, one per socket.
func (d *Daemon) readLoop(r *reader) {
	defer d.readerWG.Done()
	for {
		n, ap, err := r.conn.ReadFromUDPAddrPort(r.buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if d.draining.Load() {
					return // kernel buffer drained
				}
				continue
			}
			d.cfg.Logf("serve: udp read: %v", err)
			continue
		}
		r.datagrams.Add(1)
		if err := netflow.DecodeInto(r.buf[:n], &r.dg); err != nil {
			r.decodeErrors.Add(1)
			d.logDecodeError(n, ap, err)
			continue
		}
		r.records.Add(uint64(len(r.dg.Records)))
		d.dispatch(r, ap, &r.dg)
		if d.draining.Load() {
			// Re-arm the drain deadline after each processed datagram:
			// the read only times out once the kernel buffer is truly
			// empty, however long the backlog took to work through.
			_ = r.conn.SetReadDeadline(time.Now().Add(drainGrace))
		}
	}
}

// decodeLogPeriod floors the interval between decode-error log lines: a
// malformed-packet flood (or a scanner spraying the port) would
// otherwise write one line per datagram. The first error logs
// immediately; later ones fold into at most one summary line per period
// carrying the suppressed count. The per-reader counters and /metrics
// stay exact regardless.
const decodeLogPeriod = 5 * time.Second

func (d *Daemon) logDecodeError(n int, ap netip.AddrPort, err error) {
	now := time.Now().UnixNano()
	last := d.decodeLogLast.Load()
	if (last != 0 && now-last < int64(decodeLogPeriod)) || !d.decodeLogLast.CompareAndSwap(last, now) {
		d.decodeLogSuppressed.Add(1)
		return
	}
	if sup := d.decodeLogSuppressed.Swap(0); sup > 0 {
		d.cfg.Logf("serve: %d-byte datagram from %v: %v (+%d more decode errors since last report)", n, ap, err, sup)
	} else {
		d.cfg.Logf("serve: %d-byte datagram from %v: %v", n, ap, err)
	}
}

// ingestTotals aggregates the per-reader counters into the daemon-wide
// view /healthz and /metrics report.
func (d *Daemon) ingestTotals() (datagrams, records, decodeErrors uint64) {
	for _, r := range d.readers {
		datagrams += r.datagrams.Load()
		records += r.records.Load()
		decodeErrors += r.decodeErrors.Load()
	}
	return datagrams, records, decodeErrors
}

// ReaderStatus is one ingest reader's row in the /links response and
// the per-reader /metrics families.
type ReaderStatus struct {
	Reader       int    `json:"reader"`
	Datagrams    uint64 `json:"datagrams"`
	Records      uint64 `json:"records"`
	DecodeErrors uint64 `json:"decode_errors"`
	// ReceiveBufferBytes is the socket's effective kernel receive
	// buffer: the post-clamp SO_RCVBUF readback, not the requested
	// size. 0 when the platform can't report it.
	ReceiveBufferBytes int `json:"receive_buffer_bytes"`
}

func (d *Daemon) readerStatus() []ReaderStatus {
	out := make([]ReaderStatus, len(d.readers))
	for i, r := range d.readers {
		out[i] = ReaderStatus{
			Reader:             r.index,
			Datagrams:          r.datagrams.Load(),
			Records:            r.records.Load(),
			DecodeErrors:       r.decodeErrors.Load(),
			ReceiveBufferBytes: r.rcvbuf,
		}
	}
	return out
}
