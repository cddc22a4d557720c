package engine_test

// The byte-identity chain (ARCHITECTURE.md, Contracts) as one generated
// property: a record sequence from enginetest.Generate goes down every
// path — RunMatrix, RunStreaming, LivePipeline fed one producer at four
// batch sizes and several producers at once, the accumulator stepping a
// pipeline on its own goroutine, and the daemon over loopback UDP — and
// each must return the sequential reference's results, bit for bit, for
// every spec of the case, and the reference's counters. Where a spec
// fails, each path fails with the reference's error. The conservation
// laws hold on every path's counters.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/scheme"
	"repro/internal/serve"
)

// FuzzEquivalence runs every path on the case Generate(seed, shape)
// builds. On its seed corpus — one shape per file under testdata/fuzz —
// it runs RunMatrix, and each other path runs as a test of its own (the
// legs below), so that no path runs a case twice; a fuzzing run (go test
// -fuzz) runs them all.
func FuzzEquivalence(f *testing.F) {
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		ref := newReference(t, enginetest.Generate(seed, shape))
		ref.matrix()
		if fuzzing {
			ref.daemon()
			ref.accumulator()
			ref.streaming()
			ref.live(1, 7, 32, 33)
			ref.producers()
			ref.burst()
		}
	})
}

// TestDaemonMatchesBatch runs the corpus' v5 cases through the daemon.
func TestDaemonMatchesBatch(t *testing.T) {
	onCorpus(t, (*reference).daemon)
}

// TestRunStreamingMatchesBatch runs the corpus through RunStreaming.
func TestRunStreamingMatchesBatch(t *testing.T) {
	onCorpus(t, (*reference).streaming)
}

// TestLivePipelineMatchesRunStreamLink runs the corpus through a
// LivePipeline fed by one producer, batch by batch.
func TestLivePipelineMatchesRunStreamLink(t *testing.T) {
	for _, batch := range []int{1, 7, 30, 31, 32, 33, 100} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			onCorpus(t, func(r *reference) { r.live(batch) })
		})
	}
}

// TestLivePipelineConcurrentProducers runs the corpus through a
// LivePipeline fed by several producers at once.
func TestLivePipelineConcurrentProducers(t *testing.T) {
	onCorpus(t, (*reference).producers)
}

// TestLivePipelineConservationAtDefaultBuffer runs the corpus, its
// interval 0 left empty, through LivePipelines fed by several producers
// at once.
func TestLivePipelineConservationAtDefaultBuffer(t *testing.T) {
	onCorpus(t, (*reference).burst)
}

// TestStreamEvictionRecyclingMatchesBatch runs the corpus through the
// accumulator stepping each pipeline on its goroutine, and pins that the
// corpus makes each of the two tables — the accumulator's, which
// releases quiet flows, and the pipeline's, whose classifier evicts —
// bind a released ID to another prefix.
func TestStreamEvictionRecyclingMatchesBatch(t *testing.T) {
	var ran atomic.Int32
	var accRecycled, pipeRecycled atomic.Bool
	cases := onCorpus(t, func(r *reference) {
		ran.Add(1)
		acc, pipe := r.accumulator()
		if acc {
			accRecycled.Store(true)
		}
		if pipe {
			pipeRecycled.Store(true)
		}
	})
	t.Cleanup(func() {
		if t.Failed() || int(ran.Load()) != cases {
			return
		}
		if !accRecycled.Load() {
			t.Error("no case recycled an accumulator's ID: the corpus no longer covers its free list")
		}
		if !pipeRecycled.Load() {
			t.Error("no case recycled a pipeline's ID: the corpus no longer covers its free list")
		}
	})
}

// onCorpus runs leg on every case of FuzzEquivalence's seed corpus, the
// cases side by side, and returns how many cases there are.
func onCorpus(t *testing.T, leg func(*reference)) int {
	cases := corpus(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			leg(newReference(t, enginetest.Generate(c.seed, c.shape)))
		})
	}
	return len(cases)
}

// corpusCase is one file of FuzzEquivalence's seed corpus.
type corpusCase struct {
	name  string
	seed  int64
	shape []byte
}

// corpus reads FuzzEquivalence's seed corpus.
func corpus(tb testing.TB) []corpusCase {
	dir := filepath.Join("testdata", "fuzz", "FuzzEquivalence")
	files, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out []corpusCase
	for _, fi := range files {
		body, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		// go test fuzz v1, then int64(seed) and []byte("shape").
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if len(lines) != 3 {
			tb.Fatalf("%s: %d lines, want a header, an int64 and a []byte", fi.Name(), len(lines))
		}
		seed, err1 := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[1], "int64("), ")"), 10, 64)
		shape, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err := errors.Join(err1, err2); err != nil {
			tb.Fatalf("%s: %v", fi.Name(), err)
		}
		out = append(out, corpusCase{fi.Name(), seed, []byte(shape)})
	}
	return out
}

// outcome is one spec's reference run: the results of the intervals
// before the first failure, and the failure.
type outcome struct {
	results []core.Result
	err     error
}

// reference is a case with its batch reference worked out: the series
// and counters the accumulator must give, and every spec's sequential run.
type reference struct {
	t       *testing.T
	c       enginetest.Case
	series  *agg.Series
	stats   agg.StreamStats
	want    []outcome
	offered float64 // bits of c.Records
}

func newReference(t *testing.T, c enginetest.Case) *reference {
	t.Helper()
	r := &reference{t: t, c: c}
	r.series, r.stats = c.Reference()
	if r.series == nil {
		t.Fatal("the case closes no interval")
	}
	for _, rec := range c.Records {
		r.offered += rec.Bits
	}
	r.want = make([]outcome, len(c.Specs))
	for i, sp := range c.Specs {
		w := &r.want[i]
		if w.results, w.err = enginetest.Sequential(r.series, sp.Factory()); w.err == nil {
			r.conserved("reference/"+sp.String(), r.stats, w.results)
		}
	}
	return r
}

// same holds one path's run of spec i to the reference: the same results
// under reflect.DeepEqual, or — where the reference fails — the same
// error, wrapped as the engine wraps a link's error when id is not empty.
func (r *reference) same(leg string, i int, id string, got []core.Result, err error) bool {
	r.t.Helper()
	w, name := r.want[i], leg+"/"+r.c.Specs[i].String()
	if w.err != nil {
		want := w.err.Error()
		if id != "" {
			want = fmt.Sprintf("engine: link %q: %v", id, w.err)
		}
		if err == nil || err.Error() != want {
			r.t.Errorf("%s: err %v, want %s", name, err, want)
		}
		return false
	}
	if err != nil {
		r.t.Errorf("%s: %v", name, err)
		return false
	}
	if !reflect.DeepEqual(got, w.results) {
		t := 0
		for t < min(len(got), len(w.results)) && reflect.DeepEqual(got[t], w.results[t]) {
			t++
		}
		r.t.Errorf("%s: %d results, reference %d; first difference at interval %d", name, len(got), len(w.results), t)
		return false
	}
	return true
}

// counted holds a successful path's counters to the reference's and to
// the conservation laws.
func (r *reference) counted(leg string, st agg.StreamStats, results []core.Result) {
	r.t.Helper()
	if st != r.stats {
		r.t.Errorf("%s: counters %+v, reference %+v", leg, st, r.stats)
	}
	r.conserved(leg, st, results)
}

// conserved asserts the conservation laws: every record is counted once,
// every closed interval is one result, and every bit offered is emitted,
// late or far-future.
func (r *reference) conserved(leg string, st agg.StreamStats, results []core.Result) {
	r.t.Helper()
	if st.Records != st.InWindow+st.Late+st.FarFuture {
		r.t.Errorf("%s: Records %d != InWindow %d + Late %d + FarFuture %d", leg, st.Records, st.InWindow, st.Late, st.FarFuture)
	}
	if st.Closed != len(results) {
		r.t.Errorf("%s: Closed %d, %d results", leg, st.Closed, len(results))
	}
	var emitted float64
	for _, res := range results {
		emitted += res.TotalLoad * r.c.Interval.Seconds()
	}
	if d := emitted + st.LateBits + st.FarFutureBits - r.offered; math.Abs(d) > 1e-9*r.offered {
		r.t.Errorf("%s: %v bits offered, %v emitted + %v late + %v far-future", leg, r.offered, emitted, st.LateBits, st.FarFutureBits)
	}
}

// matrix runs every spec over two links sharing the reference series
// through RunMatrix at 1, 2 and 8 workers: one task per link, one per
// spec group, and a group per spec.
func (r *reference) matrix() {
	links := []engine.MatrixLink{{ID: "a", Series: r.series}, {ID: "b", Series: r.series}}
	for _, workers := range []int{1, 2, 8} {
		out, err := (&engine.MultiLinkEngine{Workers: workers}).RunMatrix(links, r.c.Specs)
		if err != nil {
			r.t.Fatal(err)
		}
		byID := map[string]engine.LinkResult{}
		for _, lr := range out {
			byID[lr.ID] = lr
		}
		for _, l := range links {
			for i, sp := range r.c.Specs {
				lr := byID[engine.MatrixID(l.ID, sp)]
				r.same(fmt.Sprintf("RunMatrix workers=%d link %s", workers, l.ID), i, lr.ID, lr.Results, lr.Err)
			}
		}
	}
}

// accumulator steps each spec's pipeline on the accumulator's goroutine,
// one Add at a time, and reports whether an ID ever stood for two
// prefixes — a released ID bound again — in the accumulator's table, as
// emitted, and in the pipeline's, once Step has translated the column.
func (r *reference) accumulator() (accRecycled, pipeRecycled bool) {
	c := r.c
	for i, sp := range c.Specs {
		cfg, err := sp.Config()
		if err != nil {
			r.t.Fatal(err)
		}
		pipe, err := core.NewPipeline(cfg)
		if err != nil {
			r.t.Fatal(err)
		}
		acc, err := agg.NewStreamAccumulator(agg.StreamConfig{Start: c.Start, Interval: c.Interval, Window: c.Window})
		if err != nil {
			r.t.Fatal(err)
		}
		var got []core.Result
		accOwner, pipeOwner := map[uint32]netip.Prefix{}, map[uint32]netip.Prefix{}
		// rebound records the column's IDs in owner and reports whether one
		// of them stood for another prefix before.
		rebound := func(owner map[uint32]netip.Prefix, snap *core.FlowSnapshot) (again bool) {
			for k := 0; k < snap.Len(); k++ {
				if p, ok := owner[snap.ID(k)]; ok && p != snap.Key(k) {
					again = true
				}
				owner[snap.ID(k)] = snap.Key(k)
			}
			return again
		}
		acc.Emit = func(t int, snap *core.FlowSnapshot) error {
			accRecycled = rebound(accOwner, snap) || accRecycled
			res, err := pipe.StepSnapshot(t, snap)
			if err == nil {
				got = append(got, res)
			}
			if snap.IDTable() == pipe.Table() {
				pipeRecycled = rebound(pipeOwner, snap) || pipeRecycled
			}
			return err
		}
		for _, rec := range c.Records {
			if err = acc.Add(rec); err != nil {
				break
			}
		}
		if err == nil {
			err = acc.Flush()
		}
		if r.same("accumulator", i, "", got, err) {
			r.counted("accumulator/"+sp.String(), acc.Stats(), got)
		}
	}
	return accRecycled, pipeRecycled
}

// records is a RecordSource over a slice, failing with err at its end
// when err is set.
type records struct {
	recs []agg.Record
	err  error
}

func (s *records) Next() (agg.Record, error) {
	if len(s.recs) == 0 {
		if s.err != nil {
			return agg.Record{}, s.err
		}
		return agg.Record{}, io.EOF
	}
	rec := s.recs[0]
	s.recs = s.recs[1:]
	return rec, nil
}

// streaming runs every spec as a RunStreaming link on two workers, with
// one more link whose source fails halfway: it reports the source's
// error — or its pipeline's, which wins — and the counters of the
// records it drew.
func (r *reference) streaming() {
	c := r.c
	link := func(id string, recs []agg.Record, err error, sp *scheme.Spec) engine.StreamLink {
		return engine.StreamLink{
			ID: id, Source: &records{recs: recs, err: err},
			Start: c.Start, Interval: c.Interval, Window: c.Window, Config: sp.Factory(),
		}
	}
	var links []engine.StreamLink
	for _, sp := range c.Specs {
		links = append(links, link(engine.MatrixID("s", sp), c.Records, nil, sp))
	}
	boom := errors.New("boom")
	half := c
	half.Records = c.Records[:len(c.Records)/2]
	links = append(links, link("~half", half.Records, boom, c.Specs[0]))
	out, err := (&engine.MultiLinkEngine{Workers: 2}).RunStreaming(links)
	if err != nil {
		r.t.Fatal(err)
	}
	byID := map[string]engine.LinkResult{}
	for _, lr := range out {
		byID[lr.ID] = lr
	}
	for i, sp := range c.Specs {
		lr := byID[engine.MatrixID("s", sp)]
		if r.same("RunStreaming", i, lr.ID, lr.Results, lr.Err) {
			r.counted("RunStreaming/"+sp.String(), lr.Stream, lr.Results)
		} else if lr.Err != nil && lr.Results != nil {
			r.t.Errorf("RunStreaming/%s: a failed link kept %d results", sp, len(lr.Results))
		}
	}
	lr := byID["~half"]
	hs, hst := half.Reference()
	wantErr := fmt.Sprintf("engine: link %q: %v", lr.ID, boom)
	if _, err := enginetest.Sequential(hs, c.Specs[0].Factory()); err != nil {
		wantErr = fmt.Sprintf("engine: link %q: %v", lr.ID, err)
	} else if lr.Stream != hst {
		r.t.Errorf("RunStreaming with a failing source: counters %+v, want those of the records drawn %+v", lr.Stream, hst)
	}
	if lr.Err == nil || lr.Err.Error() != wantErr || lr.Results != nil {
		r.t.Errorf("RunStreaming with a failing source: err %v and %d results, want %s and none", lr.Err, len(lr.Results), wantErr)
	}
}

// liveRun is one LivePipeline of a leg: spec i of ref's case, fed from
// one producer per part, batch records a send.
type liveRun struct {
	ref           *reference
	leg           string
	i             int
	buffer, batch int
	parts         [][]agg.Record
	got           []core.Result
	st            agg.StreamStats
	err           error
}

// runAll runs every pipeline at once.
func (r *reference) runAll(runs []*liveRun) {
	var wg sync.WaitGroup
	for _, x := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.got, x.st, x.err = r.send(x.leg, x.ref.c, x.ref.c.Specs[x.i], x.buffer, x.parts, x.batch)
		}()
	}
	wg.Wait()
}

// pipelines returns a run of every spec of the case.
func (r *reference) pipelines(leg string, buffer, batch int, parts [][]agg.Record) []*liveRun {
	runs := make([]*liveRun, len(r.c.Specs))
	for i := range runs {
		runs[i] = &liveRun{ref: r, leg: leg, i: i, buffer: buffer, batch: batch, parts: parts}
	}
	return runs
}

// live sends the records into a LivePipeline per spec from one producer,
// at each batch size (1 is Send) — on a one-slab queue at the odd sizes.
func (r *reference) live(batches ...int) {
	var runs []*liveRun
	for _, batch := range batches {
		buffer := 0
		if batch%2 == 1 {
			buffer = 8
		}
		runs = append(runs, r.pipelines(fmt.Sprintf("LivePipeline batch=%d", batch), buffer, batch, [][]agg.Record{r.c.Records})...)
	}
	r.runAll(runs)
	for _, x := range runs {
		if r.same(x.leg, x.i, "live", x.got, x.err) {
			r.counted(x.leg+"/"+r.c.Specs[x.i].String(), x.st, x.got)
		}
	}
}

// producers sends the wide case's records into a LivePipeline per spec
// from the case's producers, each holding whole flows and sending them
// in order seven records at a time, the queue two slabs deep.
func (r *reference) producers() {
	wide := r.wide()
	runs := wide.pipelines(fmt.Sprintf("LivePipeline producers=%d", r.c.Producers), 64, 7, split(wide.c.Records, r.c.Producers))
	r.runAll(runs)
	for _, x := range runs {
		if !wide.same(x.leg, x.i, "live", x.got, x.err) {
			continue
		}
		// Late bits add up in arrival order, which the producers
		// interleave: they agree to rounding.
		if math.Abs(x.st.LateBits-wide.stats.LateBits) <= 1e-9*wide.offered {
			x.st.LateBits = wide.stats.LateBits
		}
		wide.counted(x.leg+"/"+r.c.Specs[x.i].String(), x.st, x.got)
	}
}

// burst sends the records from the case's producers a datagram at a
// time, at the default queue depth, into a LivePipeline per spec whose
// Start lies three intervals before the origin. No record reaches back
// that far, so interval 0 is empty in every interleaving and each spec
// fails there with no threshold to reuse: the failure lands mid-burst,
// and send checks the books balance.
func (r *reference) burst() {
	c := r.c
	c.Start = c.Origin().Add(-3 * c.Interval)
	end0 := c.Start.Add(c.Interval)
	for _, rec := range c.Records {
		if rec.Bits > 0 && rec.Time.Before(end0) && (!rec.Time.Before(c.Start) || rec.Time.Add(max(rec.Span, 0)).After(c.Start)) {
			r.t.Fatalf("record %+v lands in interval 0 of %v", rec, c.Start)
		}
	}
	b := newReference(r.t, c)
	runs := b.pipelines("LivePipeline failing mid-burst", 0, 30, split(c.Records, c.Producers))
	b.runAll(runs)
	for _, x := range runs {
		if b.want[x.i].err == nil {
			r.t.Fatalf("%s/%s: the reference classifies an empty interval 0", x.leg, c.Specs[x.i])
		}
		b.same(x.leg, x.i, "live", x.got, x.err)
	}
}

// wide is the case the producers run: an explicit Start, no record that
// reaches DefaultStreamMaxGap/2 intervals in, and a window wide enough
// that nothing seals before the flush. No interleaving of producers can
// then make a record late or dropped, and each flow's bits add up in its
// producer's order.
func (r *reference) wide() *reference {
	c := r.c
	wide := c
	wide.Start, wide.Records = c.Origin(), nil
	half := time.Duration(agg.DefaultStreamMaxGap) * c.Interval / 2
	for _, rec := range c.Records {
		if rec.Time.Sub(wide.Start) < half && rec.Span < half {
			wide.Records = append(wide.Records, rec)
		}
	}
	_, st := wide.Reference()
	wide.Window = st.Closed + 1
	return newReference(r.t, wide)
}

// split deals the records out by flow: every record of a flow goes to the
// same part, in order.
func split(recs []agg.Record, parts int) [][]agg.Record {
	out := make([][]agg.Record, parts)
	owner := map[netip.Prefix]int{}
	for _, rec := range recs {
		k, ok := owner[rec.Prefix]
		if !ok {
			k = len(owner) % parts
			owner[rec.Prefix] = k
		}
		out[k] = append(out[k], rec)
	}
	return out
}

// send runs one LivePipeline on c under sp, one producer goroutine per
// part sending its records batch at a time (Send when batch is 1), and
// returns the results, the final counters and Close's error. The hook's
// Sealed and the queue's books are checked on the way: results in order
// and gap-free, each at its interval's left edge, with counters that
// have closed it and the step observation of its own interval; and
// Stats().Records + Dropped() is what the sends accepted.
func (r *reference) send(leg string, c enginetest.Case, sp *scheme.Spec, buffer int, parts [][]agg.Record, batch int) ([]core.Result, agg.StreamStats, error) {
	t := r.t
	origin := c.Origin()
	var got []core.Result
	lp, err := engine.NewLivePipeline(engine.LiveLink{
		ID: "live", Start: c.Start, Interval: c.Interval, Window: c.Window, Buffer: buffer, Config: sp.Factory(),
		OnResult: func(s engine.Sealed) error {
			if i := s.T; i != len(got) || s.Stats.Closed != i+1 || !s.At.Equal(origin.Add(time.Duration(i)*c.Interval)) || s.Step.Interval != s.Result.Interval {
				t.Errorf("%s/%s: result for interval %d at %v with %d closed, step observed for %d, want interval %d at %v", leg, sp, i, s.At, s.Stats.Closed, s.Step.Interval, len(got), origin.Add(time.Duration(len(got))*c.Interval))
			}
			got = append(got, s.Result)
			return nil
		},
	})
	if err != nil {
		t.Error(err)
		return nil, agg.StreamStats{}, err
	}
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for _, recs := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(recs); i += batch {
				var n int
				var err error
				if batch == 1 {
					if err = lp.Send(recs[i]); err == nil {
						n = 1
					}
				} else {
					n, err = lp.SendBatch(recs[i:min(i+batch, len(recs))])
				}
				accepted.Add(uint64(n))
				if err != nil {
					if batch <= 32 && n != 0 {
						t.Errorf("%s/%s: a failed send enqueued %d records", leg, sp, n)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	err = lp.Close()
	st := lp.Stats()
	if st.Records+lp.Dropped() != accepted.Load() {
		t.Errorf("%s/%s: %d accumulated + %d dropped, %d accepted", leg, sp, st.Records, lp.Dropped(), accepted.Load())
	}
	if err != nil && st.Records-(st.InWindow+st.Late+st.FarFuture) > 1 {
		t.Errorf("%s/%s: %+v leaves more than the one record whose seal failed unattributed", leg, sp, st)
	}
	return got, st, err
}

// daemon sends a v5 case's wire records — unrouted ones among them — as
// NetFlow datagrams over loopback UDP to one daemon per spec, then holds
// each link's history, counters and ingest accounting to the reference.
// Each daemon reads one plain socket: SO_REUSEPORT sockets bound to port
// 0 at once may share a port, and so each other's datagrams
// (serve.TestLoopbackEquivalence runs the sharded readers, one daemon at
// a time).
func (r *reference) daemon() {
	if r.c.Table == nil {
		return
	}
	wires := r.c.Datagrams()
	var wg sync.WaitGroup
	for i, sp := range r.c.Specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runDaemon(i, sp, wires)
		}()
	}
	wg.Wait()
}

func (r *reference) runDaemon(i int, sp *scheme.Spec, wires [][]byte) {
	t, c := r.t, r.c
	d, err := serve.NewDaemon(serve.Config{
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Table: c.Table, Scheme: sp,
		Interval: c.Interval, Window: c.Window, Start: c.Start, History: r.stats.Closed + 1,
	})
	if err != nil {
		t.Error(err)
		return
	}
	d.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer d.Shutdown(ctx)
	conn, err := net.Dial("udp", d.UDPAddr().String())
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	for k, wire := range wires {
		if _, err := conn.Write(wire); err != nil {
			t.Error(err)
			return
		}
		if k%32 == 31 {
			time.Sleep(time.Millisecond) // stay under the socket buffer
		}
	}
	const id = "127.0.0.1@0"
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ls := d.Store().Get(id); ls != nil && ls.Summary().Ingest.Datagrams == uint64(len(wires)) {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("daemon/%s: not every datagram arrived", sp)
			return
		}
	}
	if err := d.DrainIngest(ctx); err != nil && r.want[i].err == nil {
		t.Errorf("daemon/%s: %v", sp, err)
	}
	ls := d.Store().Get(id)
	sum, hist := ls.Summary(), ls.History(0, true)
	leg := "daemon/" + sp.String()
	routed := uint64(len(c.Records))
	if in := sum.Ingest; in.Records != uint64(len(c.Wire)) || in.Unrouted != in.Records-routed || in.Routed+in.Dropped != routed {
		t.Errorf("%s: ingest %+v, want %d records, %d routed", leg, in, len(c.Wire), routed)
	}
	w := r.want[i]
	if w.err != nil {
		if want := fmt.Sprintf("engine: link %q: %v", id, w.err); sum.Error != want {
			t.Errorf("%s: error %q, want %q", leg, sum.Error, want)
		}
	} else if sum.Error != "" {
		t.Errorf("%s: %s", leg, sum.Error)
	} else {
		r.counted(leg, sum.Stream, w.results)
	}
	want := summaries(w.results)
	if len(hist) != len(want) {
		t.Errorf("%s: %d intervals in the history, reference %d", leg, len(hist), len(want))
		return
	}
	for k := range hist {
		if at := c.Origin().Add(time.Duration(k) * c.Interval); !hist[k].Start.Equal(at) {
			t.Errorf("%s: interval %d starts %v, want %v", leg, k, hist[k].Start, at)
		}
		hist[k].Start = time.Time{}
		if !reflect.DeepEqual(hist[k], want[k]) {
			t.Errorf("%s: interval %d is %+v, reference %+v", leg, k, hist[k], want[k])
			return
		}
	}
}

// summaries renders results as a link's history renders them.
func summaries(results []core.Result) []serve.IntervalSummary {
	out := make([]serve.IntervalSummary, len(results))
	var prev core.ElephantSet
	for k, res := range results {
		promoted, demoted := core.Churn(prev, res.Elephants)
		prev = res.Elephants
		flows := make([]string, 0, res.ElephantCount())
		for _, p := range res.Elephants.Flows() {
			flows = append(flows, p.String())
		}
		out[k] = serve.IntervalSummary{
			Interval: k, TotalLoadBps: res.TotalLoad, ActiveFlows: res.ActiveFlows,
			Elephants: res.ElephantCount(), ElephantLoadBps: res.ElephantLoad,
			LoadFraction: res.LoadFraction(), ThresholdBps: res.Threshold,
			Promoted: promoted, Demoted: demoted, Flows: flows,
		}
	}
	return out
}
