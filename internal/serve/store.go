package serve

import (
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
)

// DefaultHistory is the default per-link history ring capacity: a day
// of five-minute intervals.
const DefaultHistory = 288

// numShards spreads links over independently locked shards so HTTP
// readers scanning one link never contend with the ingest path writing
// another. 16 shards is far past the contention point for a POP's worth
// of links while keeping the scan that rebuilds the sorted view cheap.
const numShards = 16

// Store is the daemon's sharded in-memory state: one LinkState per
// monitored link, keyed by link ID. All methods are safe for concurrent
// use — the UDP ingest loop and the per-link pipeline workers write
// while HTTP handlers read.
type Store struct {
	shards [numShards]storeShard

	// created counts the links GetOrCreate has made, each counted after
	// it is in its shard. sorted is the link list in ID order as of the
	// count it carries; a read whose count still matches walks it
	// without touching a shard, the first read after a creation rebuilds
	// it. Links are never removed, so a view is stale only by omission.
	created atomic.Uint64
	sorted  atomic.Pointer[sortedLinks]
}

// sortedLinks is every link created up to count at (possibly a few
// created since), sorted by ID.
type sortedLinks struct {
	at    uint64
	links []*LinkState
}

type storeShard struct {
	mu    sync.RWMutex
	links map[string]*LinkState
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].links = make(map[string]*LinkState)
	}
	return s
}

func (s *Store) shardFor(id string) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &s.shards[h.Sum32()%numShards]
}

// Get returns the link's state, or nil when the link is unknown.
func (s *Store) Get(id string) *LinkState {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.links[id]
}

// GetOrCreate returns the link's state, creating it (with the given
// history capacity) on first sight.
func (s *Store) GetOrCreate(id string, history int) *LinkState {
	sh := s.shardFor(id)
	sh.mu.RLock()
	ls := sh.links[id]
	sh.mu.RUnlock()
	if ls != nil {
		return ls
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ls = sh.links[id]; ls == nil {
		ls = newLinkState(id, history)
		sh.links[id] = ls
		s.created.Add(1)
	}
	return ls
}

// links returns every known link in ID order. The count is loaded
// before the shards are walked and each link is counted after it is
// stored, so a view stamped n holds at least the first n links: a link
// whose GetOrCreate has returned is in every later read.
func (s *Store) links() []*LinkState {
	n := s.created.Load()
	if v := s.sorted.Load(); v != nil && v.at == n {
		return v.links
	}
	links := make([]*LinkState, 0, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, ls := range sh.links {
			links = append(links, ls)
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(links, func(a, b *LinkState) int { return strings.Compare(a.id, b.id) })
	s.sorted.Store(&sortedLinks{at: n, links: links})
	return links
}

// Summaries returns every link's summary row, sorted by ID — the
// collection both /links and /metrics render.
func (s *Store) Summaries() []LinkSummary {
	links := s.links()
	out := make([]LinkSummary, len(links))
	for i, ls := range links {
		out[i] = ls.Summary()
	}
	return out
}

// Len reports the number of known links.
func (s *Store) Len() int { return int(s.created.Load()) }

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

// historyEntry pairs a summary with the interval's owning elephant set
// (core.ElephantSet storage is immutable, so retaining it is safe).
type historyEntry struct {
	summary IntervalSummary
	set     core.ElephantSet
}

// LinkState is one link's live state: ingest counters, the current
// elephant set, and a fixed-capacity ring of recent interval summaries.
// Writers are the UDP ingest loop (counters) and the link's pipeline
// worker (results); readers are the HTTP handlers.
type LinkState struct {
	id string

	mu      sync.RWMutex
	ingest  IngestCounters
	stream  agg.StreamStats
	current core.ElephantSet
	last    IntervalSummary
	hasLast bool
	failed  string

	// created and lastSeal are wall-clock instants — when the state was
	// built and when the most recent interval sealed — backing the
	// readiness staleness check (Staleness).
	created  time.Time
	lastSeal time.Time

	// ring is the history: capacity fixed at creation, oldest entries
	// overwritten in place.
	ring  []historyEntry
	next  int // ring slot the next entry lands in
	count int // entries held, <= cap(ring)
}

func newLinkState(id string, history int) *LinkState {
	if history <= 0 {
		history = DefaultHistory
	}
	return &LinkState{id: id, ring: make([]historyEntry, history), created: time.Now()}
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

// RecordResult folds one closed interval into the state: churn against
// the previous set, the new current set, the history ring, and the
// accumulator counters as of the close.
func (ls *LinkState) RecordResult(t int, at time.Time, res core.Result, stats agg.StreamStats) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	promoted, demoted := core.Churn(ls.current, res.Elephants)
	sum := IntervalSummary{
		Interval:        t,
		Start:           at,
		TotalLoadBps:    res.TotalLoad,
		ActiveFlows:     res.ActiveFlows,
		Elephants:       res.ElephantCount(),
		ElephantLoadBps: res.ElephantLoad,
		LoadFraction:    res.LoadFraction(),
		ThresholdBps:    res.Threshold,
		Promoted:        promoted,
		Demoted:         demoted,
	}
	ls.current = res.Elephants
	ls.last = sum
	ls.hasLast = true
	ls.stream = stats
	ls.ring[ls.next] = historyEntry{summary: sum, set: res.Elephants}
	ls.next = (ls.next + 1) % len(ls.ring)
	if ls.count < len(ls.ring) {
		ls.count++
	}
	ls.lastSeal = time.Now()
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

// SetStreamStats records the accumulator's final counters (after the
// shutdown flush, when no more closes will deliver them).
func (ls *LinkState) SetStreamStats(stats agg.StreamStats) {
	ls.mu.Lock()
	ls.stream = stats
	ls.mu.Unlock()
}

// ReclassifyDropped moves n records from Routed to Dropped — the
// post-mortem correction for records a failed pipeline accepted into
// its queue but discarded unclassified (engine.LivePipeline.Dropped).
func (ls *LinkState) ReclassifyDropped(n uint64) {
	if n == 0 {
		return
	}
	ls.mu.Lock()
	if n > ls.ingest.Routed {
		n = ls.ingest.Routed
	}
	ls.ingest.Routed -= n
	ls.ingest.Dropped += n
	ls.mu.Unlock()
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
func (ls *LinkState) Summary() LinkSummary {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := LinkSummary{ID: ls.id, Ingest: ls.ingest, Stream: ls.stream, Error: ls.failed}
	if ls.hasLast {
		last := ls.last
		out.Last = &last
	}
	return out
}

// Current returns the most recent closed interval's summary and its
// elephant set; ok is false until the first interval closes.
func (ls *LinkState) Current() (IntervalSummary, core.ElephantSet, bool) {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.last, ls.current, ls.hasLast
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
		// Oldest retained entry sits at next-count (mod capacity).
		e := &ls.ring[(ls.next-ls.count+i+2*len(ls.ring))%len(ls.ring)]
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
