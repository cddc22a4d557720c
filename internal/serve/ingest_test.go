package serve

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/netflow"
	"repro/internal/scheme"
)

// logCapture is a concurrency-safe Logf sink for asserting on the
// daemon's log volume.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) count(substr string) int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	n := 0
	for _, l := range lc.lines {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

// TestConcurrentLinkCreation hammers the copy-on-write dispatch with M
// goroutines racing over the same fresh exporter identities: every link
// must end up with exactly one pipeline (one "new link" log line, one
// store entry) and no datagram may escape the per-link accounting. Run
// with -race: this is the link index's publication-safety test.
func TestConcurrentLinkCreation(t *testing.T) {
	const (
		goroutines = 8
		links      = 32
	)
	table, err := bgp.Generate(bgp.GenConfig{Routes: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var logs logCapture
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   scheme.MustParse("load"),
		Interval: time.Minute,
		Logf:     logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})

	// 20 distinct routed flows per link: above the pipeline's default
	// MinFlows, so the shutdown flush classifies instead of failing.
	const recsPerDatagram = 20
	routes := table.Routes()
	at := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine is its own "reader": private scratch, same
			// exporter identities as everyone else.
			r := newReader(0, nil, 0)
			recs := make([]netflow.Record, recsPerDatagram)
			for i := range recs {
				recs[i] = netflow.Record{
					DstAddr: routes[i].Prefix.Addr(),
					Octets:  uint32(1000 * (i + 1)),
					First:   1000,
					Last:    1000,
				}
			}
			dg := netflow.Datagram{
				Header: netflow.Header{
					Count:     recsPerDatagram,
					SysUptime: 1000,
					UnixSecs:  uint32(at.Unix()),
				},
				Records: recs,
			}
			for i := 0; i < links; i++ {
				// links/2 distinct exporter addresses × 2 engine slots.
				ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 1, byte(i / 2)}), 2055)
				dg.Header.EngineID = uint8(i % 2)
				d.dispatch(r, ap, &dg)
			}
		}()
	}
	wg.Wait()

	if got := d.store.Len(); got != links {
		t.Fatalf("store has %d links, want %d", got, links)
	}
	if got := len(d.store.index.Load().byKey); got != links {
		t.Fatalf("index has %d wire keys, want %d", got, links)
	}
	if got := logs.count("new link"); got != links {
		t.Errorf("%d \"new link\" creations logged, want exactly %d (one pipeline per link)", got, links)
	}
	for _, sum := range d.store.Summaries() {
		if sum.Error != "" {
			t.Errorf("link %s failed: %s", sum.ID, sum.Error)
		}
		in := sum.Ingest
		if in.Datagrams != goroutines {
			t.Errorf("link %s: %d datagrams, want %d", sum.ID, in.Datagrams, goroutines)
		}
		if in.Records != recsPerDatagram*goroutines {
			t.Errorf("link %s: %d records, want %d", sum.ID, in.Records, recsPerDatagram*goroutines)
		}
		if in.Routed+in.Unrouted+in.Dropped != in.Records {
			t.Errorf("link %s: routed %d + unrouted %d + dropped %d != records %d — datagram accounting lost",
				sum.ID, in.Routed, in.Unrouted, in.Dropped, in.Records)
		}
		if in.Unrouted != 0 {
			t.Errorf("link %s: %d unrouted, want 0 (destinations are table routes)", sum.ID, in.Unrouted)
		}
	}
}

// TestFailedLinkReconcilesMidBatch pins the failed-link books now that
// records queue a batch at a time. One record per interval to a single
// destination, from interval 1 on: interval 0 seals with no active flow
// and no prior threshold to fall back on, so the first classification
// fails the link while the accumulate stage is a few records into the
// first datagram's batch. Dispatch counted every
// record of every batch it queued as Routed; after the drain,
// the link's close must have moved the unread rest of that batch and
// everything queued behind it to Dropped, leaving Routed equal to what
// actually reached the accumulator.
func TestFailedLinkReconcilesMidBatch(t *testing.T) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   scheme.MustParse("load"),
		Interval: time.Minute,
		Window:   1,
		Start:    at,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(func() {
		_ = d.Shutdown(ctx) // reports the link failure this test provokes
		cancel()
	})

	const datagrams = 3
	r := newReader(0, nil, 0)
	ap := netip.MustParseAddrPort("192.0.2.9:2055")
	dst := table.Routes()[0].Prefix.Addr()
	for j := 0; j < datagrams; j++ {
		recs := make([]netflow.Record, netflow.MaxRecordsPerDatagram)
		for k := range recs {
			minute := uint32(j*len(recs) + k + 1)
			recs[k] = netflow.Record{DstAddr: dst, Octets: 1000, First: minute * 60000, Last: minute * 60000}
		}
		d.dispatch(r, ap, &netflow.Datagram{
			Header:  netflow.Header{Count: uint16(len(recs)), UnixSecs: uint32(at.Unix())},
			Records: recs,
		})
	}
	if err := d.DrainIngest(ctx); err == nil {
		t.Fatal("DrainIngest reported no error for a link that cannot classify its first interval")
	}

	sums := d.store.Summaries()
	if len(sums) != 1 {
		t.Fatalf("%d links, want 1", len(sums))
	}
	sum, in := sums[0], sums[0].Ingest
	if sum.Error == "" {
		t.Error("failed link carries no error")
	}
	if want := uint64(datagrams * netflow.MaxRecordsPerDatagram); in.Records != want || in.Unrouted != 0 {
		t.Errorf("ingest saw %d records (%d unrouted), want %d routed ones", in.Records, in.Unrouted, want)
	}
	if in.Routed != sum.Stream.Records {
		t.Errorf("routed %d != %d records the accumulator saw — queued-then-discarded records still counted as routed", in.Routed, sum.Stream.Records)
	}
	if in.Routed+in.Dropped != in.Records {
		t.Errorf("routed %d + dropped %d != records %d", in.Routed, in.Dropped, in.Records)
	}
	// Double buffering lets the accumulate stage run at most a few seals
	// past the failed one.
	if in.Routed == 0 || in.Routed >= netflow.MaxRecordsPerDatagram {
		t.Errorf("routed %d, want the failure inside the first %d-record batch", in.Routed, netflow.MaxRecordsPerDatagram)
	}
}

// TestDecodeErrorLogRateLimited floods the daemon with malformed
// datagrams through the real socket: every one must be counted, but the
// per-datagram log line must be rate-limited to the first occurrence
// (plus at most a periodic summary), not one line per datagram.
func TestDecodeErrorLogRateLimited(t *testing.T) {
	const flood = 400
	table, err := bgp.Generate(bgp.GenConfig{Routes: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var logs logCapture
	d, err := NewDaemon(Config{
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Table:    table,
		Scheme:   scheme.MustParse("load"),
		Readers:  2,
		Interval: time.Minute,
		Logf:     logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})

	conn, err := net.Dial("udp", d.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < flood; i++ {
		if _, err := conn.Write([]byte{0, 9, 0, 1, 0xba, 0xad}); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			time.Sleep(time.Millisecond) // stay under the socket buffer
		}
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		_, _, decodeErrors := d.ingestTotals()
		if decodeErrors == flood {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counted %d decode errors before deadline, want %d", decodeErrors, flood)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The flood fits well inside one decodeLogPeriod: the first error
	// logs, the CAS race may let one more line through, the rest fold
	// into the suppressed counter.
	if got := logs.count("datagram from"); got > 2 {
		t.Errorf("%d decode-error log lines for %d malformed datagrams, want <= 2", got, flood)
	}
}
