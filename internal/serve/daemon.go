package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/scheme"
)

// DefaultInterval is the paper's measurement interval Δ.
const DefaultInterval = 5 * time.Minute

// DefaultReadBuffer is the UDP receive buffer requested for every ingest
// socket: large enough to ride out an exporter's burst while a pipeline
// worker is closing an interval. What the kernel grants (post-clamp) is
// read back and reported per reader via /links and /metrics.
const DefaultReadBuffer = 1 << 22

// MaxReaders caps the ingest shard count: past one socket per core the
// extra readers only add scheduling overhead.
const MaxReaders = 64

// drainGrace is how long DrainIngest keeps reading an idle socket
// before concluding the kernel buffer is empty.
const drainGrace = 100 * time.Millisecond

// DefaultReaders is the reader-count heuristic cmd/elephantd defaults
// to: one reader per core up to 8 — past that the classification
// pipelines want the cores more than the sockets do.
func DefaultReaders() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Config assembles a Daemon.
type Config struct {
	// UDPAddr is the NetFlow v5 listen address, e.g. ":2055". Required.
	UDPAddr string
	// HTTPAddr is the query/metrics API listen address. Required.
	HTTPAddr string
	// Table routes record destinations to BGP prefixes. Required.
	Table *bgp.Table
	// Scheme is the classification scheme every link runs. Required.
	Scheme *scheme.Spec
	// Readers is the number of ingest reader goroutines; 0 selects 1.
	// Each reader owns its own SO_REUSEPORT socket (kernel-hashed
	// exporter sharding); a platform without the option runs one reader
	// whatever this says.
	Readers int
	// Interval is the measurement interval Δ; 0 selects
	// DefaultInterval.
	Interval time.Duration
	// Window is the per-link accumulator's open-interval count; 0
	// derives it from the scheme via engine.StreamWindow.
	Window int
	// Start anchors interval 0 for every link. The zero value aligns
	// each link's interval 0 to its own first record — the usual live
	// deployment; a fixed Start makes intervals comparable across links
	// (and reproducible in tests).
	Start time.Time
	// History is the per-link history ring capacity — the closed
	// intervals /links/{id}/history and /links/{id}/debug/intervals can
	// still show; 0 selects DefaultHistory.
	History int
	// Buffer is the per-link record queue capacity in records, rounded up
	// to whole 32-record batches (a datagram's records queue as one
	// batch); 0 selects engine.DefaultLiveBuffer.
	Buffer int
	// StaleAfter is how long a link may go without sealing an interval
	// before /readyz counts it stale; 0 selects 3×Interval (a link that
	// missed two consecutive seals plus slack is in trouble).
	StaleAfter time.Duration
	// Pprof enables the net/http/pprof handlers under /debug/pprof/ on
	// the API listener. Off by default: the profiling surface is a
	// debugging aid, not part of the query API.
	Pprof bool
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Daemon is the live monitoring process: a sharded UDP NetFlow v5
// collector demultiplexing datagrams into per-link classification
// pipelines, the store indexing those links, and an HTTP query/metrics
// API. See the package documentation for the lifecycle.
type Daemon struct {
	cfg   Config
	store *Store

	conns    []*net.UDPConn // ingest sockets
	readers  []*reader      // one per socket
	readerWG sync.WaitGroup

	httpLn  net.Listener
	httpSrv *http.Server

	loopDone chan struct{} // closed when every reader has exited
	httpDone chan struct{}
	httpErr  error

	draining atomic.Bool
	started  time.Time

	// Decode-error log rate limiting (see logDecodeError).
	decodeLogLast       atomic.Int64
	decodeLogSuppressed atomic.Uint64

	drainOnce sync.Once
	drainErr  error
	shutOnce  sync.Once
	shutErr   error
}

// NewDaemon validates cfg and binds the sockets; the daemon is not
// serving until Start.
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("serve: NewDaemon: Table is required")
	}
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("serve: NewDaemon: Scheme is required")
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("serve: NewDaemon: %w", err)
	}
	for _, n := range []struct {
		name string
		v    int
	}{{"readers", cfg.Readers}, {"window", cfg.Window}, {"history", cfg.History}, {"buffer", cfg.Buffer}} {
		if n.v < 0 {
			return nil, fmt.Errorf("serve: NewDaemon: negative %s %d", n.name, n.v)
		}
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("serve: NewDaemon: non-positive interval %v", cfg.Interval)
	}
	if cfg.Readers == 0 {
		cfg.Readers = 1
	}
	if cfg.Readers > MaxReaders {
		cfg.Readers = MaxReaders
	}
	cfg.Window = engine.StreamWindow(cfg.Scheme, cfg.Window)
	if cfg.History == 0 {
		cfg.History = DefaultHistory
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = 3 * cfg.Interval
	}
	if cfg.StaleAfter < 0 {
		return nil, fmt.Errorf("serve: NewDaemon: negative stale-after %v", cfg.StaleAfter)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	conns, err := listenUDP(cfg.UDPAddr, cfg.Readers, cfg.Logf)
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		for _, c := range conns {
			c.Close()
		}
		return nil, fmt.Errorf("serve: listening on HTTP: %w", err)
	}

	d := &Daemon{
		cfg:      cfg,
		store:    NewStore(),
		conns:    conns,
		httpLn:   ln,
		loopDone: make(chan struct{}),
		httpDone: make(chan struct{}),
	}
	d.readers = make([]*reader, len(conns))
	for i, c := range conns {
		d.readers[i] = newReader(i, c, effectiveReadBuffer(c))
	}
	d.httpSrv = &http.Server{
		Handler:           d.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return d, nil
}

// Store exposes the daemon's link store (read-only use; handlers and
// tests).
func (d *Daemon) Store() *Store { return d.store }

// UDPAddr returns the bound NetFlow listen address (shared by every
// reader socket).
func (d *Daemon) UDPAddr() net.Addr { return d.conns[0].LocalAddr() }

// HTTPAddr returns the bound API listen address.
func (d *Daemon) HTTPAddr() net.Addr { return d.httpLn.Addr() }

// Readers reports the ingest reader count.
func (d *Daemon) Readers() int { return len(d.readers) }

// ReusePort reports whether ingest runs on more than one socket, each a
// SO_REUSEPORT socket with its own reader.
func (d *Daemon) ReusePort() bool { return len(d.conns) > 1 }

// Start launches the ingest readers and the HTTP server.
func (d *Daemon) Start() {
	d.started = time.Now()
	d.readerWG.Add(len(d.readers))
	for _, r := range d.readers {
		go d.readLoop(r)
	}
	go func() {
		d.readerWG.Wait()
		close(d.loopDone)
	}()
	go func() {
		defer close(d.httpDone)
		if err := d.httpSrv.Serve(d.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.httpErr = err
			d.cfg.Logf("serve: http: %v", err)
		}
	}()
	mode := "reuseport"
	if !d.ReusePort() {
		mode = "one socket"
	}
	d.cfg.Logf("serve: listening — NetFlow v5 on %v (%d readers, %s), API on %v, scheme %s, interval %v, window %d",
		d.UDPAddr(), len(d.readers), mode, d.HTTPAddr(), d.cfg.Scheme, d.cfg.Interval, d.cfg.Window)
}

// Run is the blocking convenience wrapper: Start, serve until ctx is
// cancelled, then Shutdown with the given grace period.
func (d *Daemon) Run(ctx context.Context, grace time.Duration) error {
	d.Start()
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return d.Shutdown(sctx)
}

// linkID names the link a datagram belongs to: the exporter's source
// address plus the v5 engine ID, "192.0.2.1@0" — one router exporting
// from several slots shows up as several links, as it should (each slot
// is its own flow cache and sequence space).
func linkID(addr netip.Addr, engineID uint8) string {
	return addr.Unmap().String() + "@" + strconv.Itoa(int(engineID))
}

// DrainIngest performs the ingest half of a graceful shutdown: stop
// accepting new datagrams once every socket's kernel buffer is empty,
// close every link's remaining open intervals (final flush through each
// pipeline), and record the final accumulator counters in the store.
// The HTTP API keeps serving — after DrainIngest the store holds the
// complete run, queryable until Shutdown. Safe to call more than once.
func (d *Daemon) DrainIngest(ctx context.Context) error {
	d.drainOnce.Do(func() {
		d.draining.Store(true)
		// A deadline slightly in the future lets each reader consume
		// everything already buffered, then time out and exit.
		for _, c := range d.conns {
			_ = c.SetReadDeadline(time.Now().Add(drainGrace))
		}
		select {
		case <-d.loopDone:
		case <-ctx.Done():
			// Forced: abandon buffered datagrams.
			for _, c := range d.conns {
				c.Close()
			}
			<-d.loopDone
		}
		for _, c := range d.conns {
			_ = c.Close()
		}

		// The readers have exited, so no link is created from here on.
		// Close pipelines in ID order for deterministic logs.
		links := d.store.links()
		for _, ls := range links {
			if err := ls.close(); err != nil && d.drainErr == nil {
				d.drainErr = err
			}
		}
		datagrams, records, decodeErrors := d.ingestTotals()
		d.cfg.Logf("serve: ingest drained — %d datagrams, %d records, %d decode errors, %d links, %d readers",
			datagrams, records, decodeErrors, len(links), len(d.readers))
	})
	return d.drainErr
}

// Shutdown gracefully stops the daemon: DrainIngest (drain the sockets,
// close intervals, flush final snapshots into the store), then stop the
// HTTP server. Safe to call more than once.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.shutOnce.Do(func() {
		d.shutErr = d.DrainIngest(ctx)
		if err := d.httpSrv.Shutdown(ctx); err != nil && d.shutErr == nil {
			d.shutErr = err
		}
		<-d.httpDone
		if d.httpErr != nil && d.shutErr == nil {
			d.shutErr = d.httpErr
		}
	})
	return d.shutErr
}
