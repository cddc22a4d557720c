package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pcap"
	"repro/internal/report"
	"repro/internal/scheme"
	"repro/internal/trace"
)

var t0 = time.Date(2001, time.July, 24, 9, 0, 0, 0, time.UTC)

// Captures are emitted in 20-second slots and classified in 1-minute
// intervals, so which slots carry routed traffic decides where the
// first routed frame falls inside interval 0.
const (
	slot       = 20 * time.Second
	interval   = time.Minute
	routedFlow = "10.1.%d.0/24" // 40 of them, the first 4 heavy
	unrouted   = "192.0.2.0/24"
)

type frame struct {
	ci   pcap.CaptureInfo
	data []byte
}

// testFrames emits a capture of the given length in which the routed
// flows are active in slots [lo, hi) and the unrouted flow in the slots
// listed after them.
func testFrames(t *testing.T, slots, lo, hi int, unroutedSlots ...int) []frame {
	t.Helper()
	s := agg.NewSeries(t0, slot, slots)
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < 40; f++ {
		p := netip.MustParsePrefix(fmt.Sprintf(routedFlow, f))
		for k := lo; k < hi; k++ {
			bw := 1e3 * (1 + rng.Float64())
			if f < 4 {
				bw *= 10
			}
			s.SetBandwidth(p, k, bw)
		}
	}
	for _, k := range unroutedSlots {
		s.SetBandwidth(netip.MustParsePrefix(unrouted), k, 5e3)
	}
	var buf bytes.Buffer
	if _, err := trace.NewPacketEmitter(7).Emit(&buf, s); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var frames []frame
	for {
		ci, data, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{ci, bytes.Clone(data)})
	}
}

// writeCapture writes frames as a classic pcap or a pcapng file.
func writeCapture(t *testing.T, frames []frame, ng bool) string {
	t.Helper()
	var buf bytes.Buffer
	var w interface {
		WriteHeader() error
		WritePacket(pcap.CaptureInfo, []byte) error
	} = pcap.NewWriter(&buf, pcap.Header{LinkType: pcap.LinkTypeEthernet})
	if ng {
		w = pcap.NewNgWriter(&buf, pcap.Header{LinkType: pcap.LinkTypeEthernet})
	}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WritePacket(f.ci, f.data); err != nil {
			t.Fatal(err)
		}
	}
	return writeFile(t, "capture", buf.Bytes())
}

// writeTable writes a BGP table routing the 40 routed flows, or, with
// routes false, one that routes none of the capture's traffic.
func writeTable(t *testing.T, routes bool) string {
	t.Helper()
	var b strings.Builder
	for f := 0; routes && f < 40; f++ {
		fmt.Fprintf(&b, routedFlow+"\n", f)
	}
	b.WriteString("198.51.100.0/24\n")
	return writeFile(t, "table.txt", []byte(b.String()))
}

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func elephants(t *testing.T, capture, table string, extra ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append([]string{"-pcap", capture, "-table", table, "-interval", interval.String()}, extra...), &out)
	return out.String(), err
}

// batchRows is the computation the two-pass batch mode this command
// once had performed, rebuilt from public API: prescan the capture for
// its first and last frame, aggregate it into a full series anchored at
// the first frame, classify the series. It returns the interval table
// that mode printed, cut to its first keep rows (0 keeps all), and the
// per-interval results.
func batchRows(t *testing.T, capture, table string, keep int) (string, []core.Result) {
	t.Helper()
	data, err := os.ReadFile(capture)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := pcap.OpenReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var first, last time.Time
	for {
		ci, _, err := r.ReadPacket()
		if err != nil {
			break
		}
		if first.IsZero() {
			first = ci.Timestamp
		}
		last = ci.Timestamp
	}
	tf, err := os.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tbl, err := bgp.ReadText(tf)
	if err != nil {
		t.Fatal(err)
	}
	series := agg.NewSeries(first, interval, int(last.Sub(first)/interval)+1)
	src, err := agg.NewPacketRecordSource(bytes.NewReader(data), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Collect(src, series); err != nil {
		t.Fatal(err)
	}
	lrs, err := (&engine.MultiLinkEngine{}).Run([]engine.Link{{
		ID: "batch", Series: series, Config: scheme.MustParse("load+latent").Factory(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if lrs[0].Err != nil {
		t.Fatal(lrs[0].Err)
	}
	results := lrs[0].Results
	if keep == 0 {
		keep = len(results)
	}
	tab := report.NewTable("interval", "start", "active", "elephants", "load Mb/s", "eleph frac", "theta Mb/s")
	for i, res := range results[:keep] {
		tab.AddRow(i, series.IntervalTime(i).Format("15:04"), res.ActiveFlows, res.ElephantCount(),
			fmt.Sprintf("%.1f", res.TotalLoad/1e6),
			fmt.Sprintf("%.3f", res.LoadFraction()),
			fmt.Sprintf("%.3f", res.Threshold/1e6))
	}
	return tab.String(), results
}

// TestPcapngClassifiesLikePcap: the same frames in either container
// print the same report. (The prescan the command once ran rejected
// every pcapng capture.)
func TestPcapngClassifiesLikePcap(t *testing.T) {
	frames := testFrames(t, 12, 0, 12)
	table := writeTable(t, true)
	classic, err := elephants(t, writeCapture(t, frames, false), table)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := elephants(t, writeCapture(t, frames, true), table)
	if err != nil {
		t.Fatalf("pcapng: %v", err)
	}
	if classic != ng {
		t.Errorf("pcapng report differs from pcap report:\n%s\nvs\n%s", ng, classic)
	}
	if want := fmt.Sprintf("capture: %d frames, %d routed, 0 unrouted, 4 x 1m0s intervals (window 12, 0 late records)\n", len(frames), len(frames)); !strings.HasPrefix(classic, want) {
		t.Errorf("summary line: got %q, want %q", strings.SplitN(classic, "\n", 2)[0], want)
	}
}

// TestIntervalRowsMatchBatch pins the single-pass report to the
// two-pass batch computation on captures whose unrouted traffic sits
// where the two could disagree.
func TestIntervalRowsMatchBatch(t *testing.T) {
	cases := []struct {
		name   string
		frames []frame
		rows   int // interval rows printed; 0: as many as batch computes
	}{
		// Interval 0 is anchored at the first frame, not at the first
		// routed one 20 s later — anchoring there would move every
		// boundary and change every row.
		{name: "opens with unrouted frames", frames: testFrames(t, 13, 1, 13, 0)},
		// The one difference from batch mode: the capture's last two
		// minutes carry only unrouted frames, which never reach the
		// accumulator, so no interval closes for them; batch mode sized
		// the series from the last frame and printed two empty rows.
		{name: "ends with unrouted frames", frames: testFrames(t, 15, 0, 9, 12, 13, 14), rows: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			capture, table := writeCapture(t, c.frames, false), writeTable(t, true)
			want, batch := batchRows(t, capture, table, c.rows)
			if c.rows > 0 {
				if len(batch) <= c.rows {
					t.Fatalf("batch computes %d intervals: the capture has no trailing ones to drop", len(batch))
				}
				for _, res := range batch[c.rows:] {
					if res.ActiveFlows != 0 {
						t.Fatalf("batch interval %d carries routed traffic", res.Interval)
					}
				}
			}
			got, err := elephants(t, capture, table)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(got, "\n\n"+want+"\n") {
				t.Errorf("interval rows differ from the batch computation:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestRejectedInputs: what the command refuses, and how.
func TestRejectedInputs(t *testing.T) {
	frames := testFrames(t, 3, 0, 3)
	cases := []struct {
		name    string
		frames  []frame
		ng      bool
		routes  bool
		extra   []string
		wantErr string
		usage   bool // refused before any input is read
	}{
		{name: "removed -stream flag", frames: frames, routes: true, extra: []string{"-stream"}, wantErr: "flag provided but not defined: -stream", usage: true},
		{name: "alpha outside [0,1)", frames: frames, routes: true, extra: []string{"-alpha", "1.5"}, wantErr: "alpha 1.5 outside [0,1)", usage: true},
		{name: "zero interval", frames: frames, routes: true, extra: []string{"-interval", "0"}, wantErr: "-interval 0s must be positive", usage: true},
		{name: "negative interval", frames: frames, routes: true, extra: []string{"-interval", "-1m"}, wantErr: "-interval -1m0s must be positive", usage: true},
		{name: "removed evict parameter", frames: frames, routes: true, extra: []string{"-scheme", "load+latent:evict=4"}, wantErr: `no parameter "evict"`, usage: true},
		{name: "empty pcap", routes: true, wantErr: "empty capture"},
		{name: "empty pcapng", ng: true, routes: true, wantErr: "empty capture"},
		{name: "table routing nothing", frames: frames, wantErr: "no routed packets in capture"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := elephants(t, writeCapture(t, c.frames, c.ng), writeTable(t, c.routes), c.extra...)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want %q", err, c.wantErr)
			}
			if c.usage != errors.Is(err, errUsage) {
				t.Errorf("err = %v: usage error %v, want %v", err, !c.usage, c.usage)
			}
			if out != "" {
				t.Errorf("a rejected run printed a report:\n%s", out)
			}
		})
	}
}
