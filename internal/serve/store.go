package serve

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/engine"
)

// DefaultHistory is the default per-link history ring capacity: a day
// of five-minute intervals.
const DefaultHistory = 288

// Store is the daemon's one set of links, keyed by ID under one mutex:
// a creation is one map insert, a handler's lookup by ID one map read,
// and a walk copies the links out and sorts them by ID outside the lock.
// Links are never removed. A datagram's lookup never reaches the store
// once its reader has seen the exporter: each reader keeps its own map
// from wire key to link (reader.links). Each link's counters and ring
// live behind the LinkState's own lock. All methods are safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	byID map[string]*LinkState
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{byID: map[string]*LinkState{}} }

// links returns every known link in ID order: a link whose creation has
// returned is in every later read.
func (s *Store) links() []*LinkState {
	s.mu.Lock()
	out := make([]*LinkState, 0, len(s.byID))
	for _, ls := range s.byID { // order-free: sorted by ID below
		out = append(out, ls)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *LinkState) int { return strings.Compare(a.id, b.id) })
	return out
}

// Get returns the link's state, or nil when the link is unknown.
func (s *Store) Get(id string) *LinkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// GetOrCreate returns the link's state, creating it (with the given
// history capacity and no pipeline, for a caller that steps its own) on
// first sight.
func (s *Store) GetOrCreate(id string, history int) *LinkState {
	return s.create(id, func() *LinkState { return newLinkState(id, history) })
}

// create adds the link mk builds as id, or returns the link already
// known as id: one state per ID however many callers race.
func (s *Store) create(id string, mk func() *LinkState) *LinkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ls := s.byID[id]; ls != nil {
		return ls
	}
	ls := mk()
	s.byID[id] = ls
	return ls
}

// Summaries returns every link's summary row, sorted by ID.
func (s *Store) Summaries() []LinkSummary {
	links := s.links()
	out := make([]LinkSummary, len(links))
	for i, ls := range links {
		out[i] = ls.Summary()
	}
	return out
}

// readings reads every link once, in ID order — what /links and
// /metrics render.
func (s *Store) readings() []linkReading {
	links := s.links()
	out := make([]linkReading, len(links))
	for i, ls := range links {
		out[i] = ls.read()
	}
	return out
}

// IngestCounters counts a link's datagram/record attribution outcomes
// in the UDP ingest path (decode errors happen before a link is known
// and are counted daemon-wide instead).
type IngestCounters struct {
	// Datagrams is the number of well-formed datagrams demultiplexed to
	// this link.
	Datagrams uint64 `json:"datagrams"`
	// Records is the number of flow records those datagrams carried.
	Records uint64 `json:"records"`
	// Routed counts records attributed to a BGP prefix and fed to the
	// pipeline; Unrouted counts records with no matching route.
	Routed   uint64 `json:"routed"`
	Unrouted uint64 `json:"unrouted"`
	// Dropped counts routed records discarded because the link's
	// pipeline had already failed.
	Dropped uint64 `json:"dropped"`
}

// IntervalSummary is one closed interval's classification digest — the
// unit of the history ring and of the /links/{id}/history response.
type IntervalSummary struct {
	// Interval is the 0-based interval index; Start its left-edge wall
	// time.
	Interval int       `json:"interval"`
	Start    time.Time `json:"start"`
	// TotalLoadBps, ActiveFlows, Elephants, ElephantLoadBps,
	// LoadFraction and ThresholdBps mirror core.Result.
	TotalLoadBps    float64 `json:"total_load_bps"`
	ActiveFlows     int     `json:"active_flows"`
	Elephants       int     `json:"elephants"`
	ElephantLoadBps float64 `json:"elephant_load_bps"`
	LoadFraction    float64 `json:"load_fraction"`
	ThresholdBps    float64 `json:"threshold_bps"`
	// Promoted and Demoted count membership churn against the previous
	// closed interval — the reroute events a TE controller would act on.
	Promoted int `json:"promoted"`
	Demoted  int `json:"demoted"`
	// Flows lists the interval's elephant prefixes; only populated when
	// the caller asked for sets (history?flows=1).
	Flows []string `json:"flows,omitempty"`
}

// IntervalTrace is one line of /links/{id}/debug/intervals: the same
// closed interval as its IntervalSummary, seen from the pipeline — what
// the step cost stage by stage, the raw θ(t) behind the smoothed one,
// and how far behind and how overlapped the link was running when it
// sealed. Field names and their order are stable: the endpoint serves
// them as JSONL.
type IntervalTrace struct {
	Interval          int     `json:"interval"`
	SealedUnixNanos   int64   `json:"sealed_unix_nanos"`
	DetectNanos       int64   `json:"detect_nanos"`
	ClassifyNanos     int64   `json:"classify_nanos"`
	FinalizeNanos     int64   `json:"finalize_nanos"`
	StepNanos         int64   `json:"step_nanos"`
	RawThreshold      float64 `json:"raw_threshold_bps"`
	Threshold         float64 `json:"threshold_bps"`
	TotalLoad         float64 `json:"total_load_bps"`
	ElephantLoad      float64 `json:"elephant_load_bps"`
	ActiveFlows       int     `json:"active_flows"`
	Elephants         int     `json:"elephants"`
	Promoted          int     `json:"promoted"`
	Demoted           int     `json:"demoted"`
	WatermarkLagNanos int64   `json:"watermark_lag_nanos"`
	StageOverlapNanos int64   `json:"stage_overlap_nanos"`
}

// LinkSummary is one link's row in the /links listing.
type LinkSummary struct {
	ID     string         `json:"id"`
	Ingest IngestCounters `json:"ingest"`
	// Stream carries the link accumulator's counters as of the last
	// interval close (late drops, far-future drops, closed intervals,
	// evicted flows).
	Stream agg.StreamStats `json:"stream"`
	// Last summarises the most recent closed interval; absent until the
	// first interval closes.
	Last *IntervalSummary `json:"last,omitempty"`
	// Error is the pipeline failure that froze this link, empty while
	// healthy.
	Error string `json:"error,omitempty"`
}

// historyEntry is the one record of a closed interval: its summary, the
// owning elephant set (core.ElephantSet storage is immutable, so
// retaining it is safe) and the eight numbers only a trace line carries.
// /history and /debug/intervals are two renderings of it.
type historyEntry struct {
	summary IntervalSummary
	set     core.ElephantSet

	sealedUnixNanos int64
	detectNanos     int64
	classifyNanos   int64
	finalizeNanos   int64
	stepNanos       int64
	rawThreshold    float64
	lagNanos        int64
	overlapNanos    int64
}

func (e *historyEntry) trace() IntervalTrace {
	return IntervalTrace{
		Interval:          e.summary.Interval,
		SealedUnixNanos:   e.sealedUnixNanos,
		DetectNanos:       e.detectNanos,
		ClassifyNanos:     e.classifyNanos,
		FinalizeNanos:     e.finalizeNanos,
		StepNanos:         e.stepNanos,
		RawThreshold:      e.rawThreshold,
		Threshold:         e.summary.ThresholdBps,
		TotalLoad:         e.summary.TotalLoadBps,
		ElephantLoad:      e.summary.ElephantLoadBps,
		ActiveFlows:       e.summary.ActiveFlows,
		Elephants:         e.summary.Elephants,
		Promoted:          e.summary.Promoted,
		Demoted:           e.summary.Demoted,
		WatermarkLagNanos: e.lagNanos,
		StageOverlapNanos: e.overlapNanos,
	}
}

// stageBounds are the stage histograms' bucket bounds in seconds: 1 µs
// up to ≈4 s, ×4 apart.
var stageBounds = func() (b [12]float64) {
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// histogram is one link's series of a stage histogram: raw per-bucket
// counts over stageBounds (the last bucket is +Inf) and the sum of the
// observed values. The link's mutex guards it.
type histogram struct {
	counts [len(stageBounds) + 1]uint64
	sum    float64
}

// observe folds v into the bucket of the first bound v does not exceed.
func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(stageBounds[:], v)]++
	h.sum += v
}

// linkMetrics is what /metrics reads of a link besides its ring, folded
// in by record: the stage histograms (seconds) and the churn totals.
type linkMetrics struct {
	step, detect, classify, overlap histogram
	promoted, demoted               uint64
}

// LinkState is one link: its pipeline, whose result hook it is, its
// ingest counters, the running metrics of its sealed intervals and a
// fixed-capacity ring of recent closed intervals, the newest of which is
// the link's current elephant set.
// Writers are the UDP ingest loop (counters) and the link's pipeline
// (results); readers are the HTTP handlers.
type LinkState struct {
	id string
	// lp is set before the link is published and never changed; nil
	// when the pipeline could not be built (the link is failed) or the
	// link was made by Store.GetOrCreate.
	lp *engine.LivePipeline

	mu     sync.RWMutex
	ingest IngestCounters
	stream agg.StreamStats
	failed string

	// created and lastSeal are wall-clock instants — when the state was
	// built and when the most recent interval sealed — backing the
	// readiness staleness check (Staleness).
	created  time.Time
	lastSeal time.Time

	metrics linkMetrics

	// ring is the history: history entries, allocated at the first seal
	// so that a link which never seals holds none; the oldest entry is
	// overwritten in place.
	history int
	ring    []historyEntry
	next    int // ring slot the next entry lands in
	count   int // entries held, <= len(ring)
}

func newLinkState(id string, history int) *LinkState {
	if history <= 0 {
		history = DefaultHistory
	}
	return &LinkState{id: id, history: history, created: time.Now()}
}

// ID returns the link's identifier.
func (ls *LinkState) ID() string { return ls.id }

// ObserveDatagram accounts one demultiplexed datagram.
func (ls *LinkState) ObserveDatagram(records, routed, unrouted, dropped int) {
	ls.mu.Lock()
	ls.ingest.Datagrams++
	ls.ingest.Records += uint64(records)
	ls.ingest.Routed += uint64(routed)
	ls.ingest.Unrouted += uint64(unrouted)
	ls.ingest.Dropped += uint64(dropped)
	ls.mu.Unlock()
}

// RecordResult folds one closed interval into the state with no stage
// timings, seal lag or overlap to report — record for a caller that
// drives its own pipeline and keeps no observer.
func (ls *LinkState) RecordResult(t int, at time.Time, res core.Result, stats agg.StreamStats) {
	ls.record(engine.Sealed{T: t, At: at, Result: res, Stats: stats}, 0)
}

// sealed is the link's result hook: it records the interval its
// pipeline hands over, with the overlap of the interval classified
// before it (the pipeline measures an interval's overlap only after the
// hook returns).
func (ls *LinkState) sealed(s engine.Sealed) error {
	ls.record(s, ls.lp.LastOverlap())
	return nil
}

// record folds one closed interval into the state, once, under one
// lock: churn against the previous interval's set — the interval's only
// churn computation, added to the churn totals — the accumulator
// counters as of the close, the stage histograms and the interval's
// entry in the ring, with the step's timings and seal lag from s and the
// live pipeline's stage overlap.
func (ls *LinkState) record(s engine.Sealed, overlap time.Duration) {
	now := time.Now()
	res, o := &s.Result, &s.Step
	ls.mu.Lock()
	defer ls.mu.Unlock()
	_, prev, _ := ls.newest()
	promoted, demoted := core.Churn(prev, res.Elephants)
	sum := IntervalSummary{
		Interval:        s.T,
		Start:           s.At,
		TotalLoadBps:    res.TotalLoad,
		ActiveFlows:     res.ActiveFlows,
		Elephants:       res.ElephantCount(),
		ElephantLoadBps: res.ElephantLoad,
		LoadFraction:    res.LoadFraction(),
		ThresholdBps:    res.Threshold,
		Promoted:        promoted,
		Demoted:         demoted,
	}
	ls.stream = s.Stats
	ls.lastSeal = now
	m := &ls.metrics
	m.step.observe(float64(o.StepNanos) / 1e9)
	m.detect.observe(float64(o.DetectNanos) / 1e9)
	m.classify.observe(float64(o.ClassifyNanos) / 1e9)
	m.overlap.observe(overlap.Seconds())
	m.promoted += uint64(promoted)
	m.demoted += uint64(demoted)
	if ls.ring == nil {
		ls.ring = make([]historyEntry, ls.history)
	}
	ls.ring[ls.next] = historyEntry{
		summary:         sum,
		set:             res.Elephants,
		sealedUnixNanos: now.UnixNano(),
		detectNanos:     o.DetectNanos,
		classifyNanos:   o.ClassifyNanos,
		finalizeNanos:   o.FinalizeNanos,
		stepNanos:       o.StepNanos,
		rawThreshold:    res.RawThreshold,
		lagNanos:        int64(s.SealLag),
		overlapNanos:    int64(overlap),
	}
	ls.next = (ls.next + 1) % len(ls.ring)
	if ls.count < len(ls.ring) {
		ls.count++
	}
}

// Staleness reports how long the link has gone without sealing an
// interval: now minus the last seal instant, or minus the state's
// creation when nothing has sealed yet. Never negative.
func (ls *LinkState) Staleness(now time.Time) time.Duration {
	ls.mu.RLock()
	ref := ls.lastSeal
	if ref.IsZero() {
		ref = ls.created
	}
	ls.mu.RUnlock()
	if d := now.Sub(ref); d > 0 {
		return d
	}
	return 0
}

// close flushes the link's pipeline, if it has one, and records how
// its run ended: the failure, the accumulator's final counters (no
// later seal will deliver them) and the records a failed pipeline had
// accepted into its queue but discarded unclassified, moved from Routed
// to Dropped. It returns the pipeline's error.
func (ls *LinkState) close() error {
	if ls.lp == nil {
		return nil
	}
	err := ls.lp.Close()
	ls.Fail(err)
	ls.mu.Lock()
	ls.stream = ls.lp.Stats()
	n := min(ls.lp.Dropped(), ls.ingest.Routed)
	ls.ingest.Routed -= n
	ls.ingest.Dropped += n
	ls.mu.Unlock()
	return err
}

// Fail marks the link's pipeline as failed. The first failure wins.
func (ls *LinkState) Fail(err error) {
	if err == nil {
		return
	}
	ls.mu.Lock()
	if ls.failed == "" {
		ls.failed = err.Error()
	}
	ls.mu.Unlock()
}

// Failed reports whether the link's pipeline has failed.
func (ls *LinkState) Failed() bool {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.failed != ""
}

// Summary returns the link's /links row.
func (ls *LinkState) Summary() LinkSummary { return ls.read().LinkSummary }

// linkReading is all a scrape reads of one link: its /links row, the
// running metrics and newest raw threshold (0 before the first seal)
// /metrics renders, and its pipeline's lag, stalls and last stage
// overlap (zero without a pipeline).
type linkReading struct {
	LinkSummary
	metrics linkMetrics
	raw     float64
	lag     time.Duration
	stalls  uint64
	overlap time.Duration
}

// read takes the link's reading under one read-lock; the pipeline's
// numbers are atomics.
func (ls *LinkState) read() linkReading {
	ls.mu.RLock()
	r := linkReading{LinkSummary: LinkSummary{ID: ls.id, Ingest: ls.ingest, Stream: ls.stream, Error: ls.failed}, metrics: ls.metrics}
	if ls.count > 0 {
		e := ls.retained(ls.count - 1)
		last := e.summary
		r.Last, r.raw = &last, e.rawThreshold
	}
	ls.mu.RUnlock()
	if ls.lp != nil {
		r.lag, r.stalls, r.overlap = ls.lp.WatermarkLag(), ls.lp.Stalls(), ls.lp.LastOverlap()
	}
	return r
}

// Current returns the most recent closed interval's summary and its
// elephant set; ok is false until the first interval closes.
func (ls *LinkState) Current() (IntervalSummary, core.ElephantSet, bool) {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.newest()
}

// newest is Current with the lock held by the caller: the ring's newest
// entry is the link's current state, kept nowhere else.
func (ls *LinkState) newest() (IntervalSummary, core.ElephantSet, bool) {
	if ls.count == 0 {
		return IntervalSummary{}, core.ElephantSet{}, false
	}
	e := ls.retained(ls.count - 1)
	return e.summary, e.set, true
}

// retained returns the i-th oldest entry the ring holds, 0 <= i <
// ls.count. The caller holds the lock.
func (ls *LinkState) retained(i int) *historyEntry {
	return &ls.ring[(ls.next-ls.count+i+len(ls.ring))%len(ls.ring)]
}

// History returns up to n most recent interval summaries, oldest
// first (n <= 0 means all retained). includeFlows attaches each
// interval's elephant prefixes.
func (ls *LinkState) History(n int, includeFlows bool) []IntervalSummary {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if n <= 0 || n > ls.count {
		n = ls.count
	}
	out := make([]IntervalSummary, 0, n)
	for i := ls.count - n; i < ls.count; i++ {
		e := ls.retained(i)
		sum := e.summary
		if includeFlows {
			flows := e.set.Flows()
			sum.Flows = make([]string, len(flows))
			for j, p := range flows {
				sum.Flows[j] = p.String()
			}
		}
		out = append(out, sum)
	}
	return out
}

// traces returns every retained interval as a trace line, oldest first.
func (ls *LinkState) traces() []IntervalTrace {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := make([]IntervalTrace, ls.count)
	for i := range out {
		out[i] = ls.retained(i).trace()
	}
	return out
}
