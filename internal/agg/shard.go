package agg

import (
	"encoding/binary"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// shardOpBatch is the fan-out granularity: ops are buffered
// coordinator-side and handed to a shard worker in fixed-capacity
// batches, so the channel cost is paid once per ~256 cell updates, not
// once per record. Three batches circulate per shard (one filling at
// the coordinator, up to two in flight), so the coordinator only
// blocks when a shard is more than two full batches behind.
const shardOpBatch = 256

// shardOp is one cell update routed to a shard: the op stream a shard
// receives for a given flow is exactly the subsequence of addBits
// calls the serial accumulator would have made for that flow, in the
// same order — which is what keeps the per-flow float summation (and
// hence the emitted column) bit-identical to the single-shard path.
type shardOp struct {
	prefix netip.Prefix
	g      int32   // global interval index
	bits   float64 // raw bits landing in interval g
}

// shardMsg message kinds. A single struct sent by value keeps the
// coordinator→shard channel allocation-free.
const (
	shardMsgOps     = iota // apply the ops batch, return it to the free pool
	shardMsgSeal           // sort interval g's dirty set, publish the merge view, wg.Done
	shardMsgSync           // barrier only (open-interval queries), wg.Done
	shardMsgRecycle        // release interval g's rows and advance the shard clock
)

type shardMsg struct {
	kind int8
	g    int32
	ops  []shardOp
	wg   *sync.WaitGroup
}

// shardSlot is a streamSlot that also remembers which global interval
// it currently holds. Shards learn about interval closes lazily — an
// op for interval g arriving at a slot still holding g-Window recycles
// it on touch — so an interval nothing landed in costs a shard nothing
// at all (the coordinator skips the seal barrier entirely).
type shardSlot struct {
	streamSlot
	cur int32 // global interval this slot holds; -1 when virgin
}

// recycle claims the slot for interval g, invalidating the previous
// tenant the same way the serial closeOldest does: bump the
// generation, truncate the dirty list, zero the running counters.
func (sl *shardSlot) recycle(g int32) {
	sl.dirty = sl.dirty[:0]
	sl.gen++
	if sl.gen == 0 { // generation wrap: stale tags could collide
		clear(sl.seen)
		sl.gen = 1
	}
	sl.total = 0
	sl.active = 0
	sl.cur = g
}

// accShard is one shard worker: a private flow identity table plus a
// private ring of Window interval columns covering only the flows
// hashed to this shard. All fields below ch are worker-owned; the
// coordinator reads the published merge view (dirty/col/pf) only
// between a seal barrier's WaitGroup release and the next message it
// sends, which is exactly the window the worker is guaranteed idle.
type accShard struct {
	ch   chan shardMsg
	free chan []shardOp
	done chan struct{}

	table *core.FlowTable
	slots []shardSlot
	secs  float64 // Interval.Seconds(), the bits→bandwidth divisor
	// lastSeen tracks, per dense ID, the newest interval that touched
	// the flow. Rows are released only when their interval closes AND
	// no newer open interval has touched them — a recurring flow is
	// never released at all, instead of being released and resurrected
	// every interval (which would churn the table's pending list and
	// put a map operation back on the steady-state path).
	lastSeen []int32

	// Merge view published at each seal: the sealed slot's dirty IDs in
	// ComparePrefix order, its bandwidth column, and the table's prefix
	// column to translate IDs during the coordinator's k-way merge.
	dirty []uint32
	col   []float64
	pf    []netip.Prefix
}

func (s *accShard) run() {
	defer close(s.done)
	for m := range s.ch {
		switch m.kind {
		case shardMsgOps:
			s.apply(m.ops)
			s.free <- m.ops[:0]
		case shardMsgSeal:
			s.prepareSeal(m.g)
			m.wg.Done()
		case shardMsgSync:
			m.wg.Done()
		case shardMsgRecycle:
			s.recycleInterval(m.g)
		}
	}
}

// apply accumulates a batch of cell updates, mirroring the serial
// addBits/touch arithmetic exactly: one Intern per op resolves the
// flow's dense ID in this shard's private table, then the bandwidth
// quotient is folded into the cell. Interning here — rather than at
// the coordinator — is what removes the prefix hash from the serial
// section; it is safe because per-flow op order is preserved by the
// FIFO channel and a flow only ever hashes to one shard.
func (s *accShard) apply(ops []shardOp) {
	for i := range ops {
		op := &ops[i]
		sl := &s.slots[int(op.g)%len(s.slots)]
		if sl.cur != op.g {
			sl.recycle(op.g)
		}
		id := s.table.Intern(op.prefix)
		if n := s.table.Cap(); n > len(s.lastSeen) {
			s.lastSeen = append(s.lastSeen, make([]int32, n-len(s.lastSeen))...)
		}
		if s.lastSeen[id] < op.g {
			s.lastSeen[id] = op.g
		}
		sl.grow(s.table.Cap())
		sl.touch(id, op.bits/s.secs)
	}
}

// prepareSeal puts interval g's dirty IDs into ComparePrefix order, as
// the serial closeOldest does, and publishes the slot's columns for the
// coordinator's merge.
func (s *accShard) prepareSeal(g int32) {
	sl := &s.slots[int(g)%len(s.slots)]
	if sl.cur != g {
		// Nothing landed in g on this shard since the slot last held it.
		s.dirty = nil
		return
	}
	s.table.SortIDs(sl.dirty)
	s.dirty = sl.dirty
	s.col = sl.col
	s.pf = s.table.Prefixes()
}

// recycleInterval releases the sealed interval's flow rows and ticks
// the shard's quarantine clock. It runs after the coordinator has
// finished merging (the FIFO channel orders it behind the seal), so
// releasing here can never invalidate a prefix mid-merge. The slot
// itself is recycled lazily by the next op that lands in it.
func (s *accShard) recycleInterval(g int32) {
	sl := &s.slots[int(g)%len(s.slots)]
	if sl.cur == g {
		for _, id := range sl.dirty {
			// Only flows whose newest bits are in the closing interval go
			// quiet; anything touched by a later (still open) interval
			// stays live and will be reconsidered at that close.
			if s.lastSeen[id] == g {
				s.table.Release(id)
			}
		}
	}
	s.table.Advance()
}

// shardedAcc is the coordinator side of sharded accumulation. The
// StreamAccumulator keeps every gate, stat and window decision; this
// type only owns the fan-out (routing ops to shards), the seal
// barrier, and the k-way merge that reassembles one sorted snapshot
// from the per-shard sorted columns.
type shardedAcc struct {
	shards []*accShard
	cur    [][]shardOp // per-shard op batch being filled
	wg     sync.WaitGroup

	// Per-ring-slot op counters (coordinator-side, exact): when an
	// interval closes with zero ops routed, the seal barrier and the
	// recycle round-trip are skipped entirely — an idle link costs the
	// shard workers nothing. slotG tracks which interval the counter
	// currently refers to; a slot is lazily reclaimed when interval
	// g+Window first routes an op.
	slotG   []int32
	slotOps []int

	recs []uint64 // per-shard records routed (coordinator-owned)
	// pub mirrors recs as atomics, refreshed at every seal, so scrape
	// handlers on other goroutines can read shard balance without
	// touching coordinator state.
	pub []atomic.Uint64
	// heads is the k-way merge cursor per shard, reused across seals.
	heads []int
}

func newShardedAcc(shards, window int, interval float64) *shardedAcc {
	sh := &shardedAcc{
		shards:  make([]*accShard, shards),
		cur:     make([][]shardOp, shards),
		slotG:   make([]int32, window),
		slotOps: make([]int, window),
		recs:    make([]uint64, shards),
		pub:     make([]atomic.Uint64, shards),
		heads:   make([]int, shards),
	}
	for i := range sh.slotG {
		sh.slotG[i] = -1
	}
	for i := range sh.shards {
		s := &accShard{
			ch:    make(chan shardMsg, 4),
			free:  make(chan []shardOp, 2),
			done:  make(chan struct{}),
			table: core.NewFlowTable(),
			slots: make([]shardSlot, window),
			secs:  interval,
		}
		// Rows are released when their interval closes, but an ID
		// released at close g can still sit on the dirty list of slot
		// g+Window-1 (quarantine W would free it exactly one Advance too
		// early); W+1 keeps every listed ID bound through its last seal.
		s.table.EnsureQuarantine(window + 1)
		for j := range s.slots {
			s.slots[j].gen = 1
			s.slots[j].cur = -1
		}
		s.free <- make([]shardOp, 0, shardOpBatch)
		s.free <- make([]shardOp, 0, shardOpBatch)
		sh.cur[i] = make([]shardOp, 0, shardOpBatch)
		sh.shards[i] = s
		go s.run()
	}
	return sh
}

// shardOf routes a prefix to its home shard: a cheap deterministic
// FNV-style fold of the address bytes and prefix length. Every record
// of a flow lands on the same shard, which is the invariant that
// preserves per-flow accumulation order (and with it bit-for-bit
// stream ≡ batch equality).
func (sh *shardedAcc) shardOf(p netip.Prefix) int {
	b := p.Addr().As16()
	h := uint64(14695981039346656037)
	h = (h ^ binary.LittleEndian.Uint64(b[0:8])) * 1099511628211
	h = (h ^ binary.LittleEndian.Uint64(b[8:16])) * 1099511628211
	h = (h ^ uint64(p.Bits())) * 1099511628211
	return int((h >> 32) % uint64(len(sh.shards)))
}

// enqueue routes one cell update to shard si, flushing the batch when
// full, and keeps the per-slot op counter exact.
func (sh *shardedAcc) enqueue(si int, p netip.Prefix, g int, bits float64) {
	buf := append(sh.cur[si], shardOp{prefix: p, g: int32(g), bits: bits})
	if len(buf) == cap(buf) {
		sh.shards[si].ch <- shardMsg{kind: shardMsgOps, ops: buf}
		buf = <-sh.shards[si].free
	}
	sh.cur[si] = buf
	k := g % len(sh.slotG)
	if sh.slotG[k] != int32(g) {
		sh.slotG[k] = int32(g)
		sh.slotOps[k] = 0
	}
	sh.slotOps[k]++
}

// flush pushes every partially filled batch to its shard.
func (sh *shardedAcc) flush() {
	for i, buf := range sh.cur {
		if len(buf) == 0 {
			continue
		}
		sh.shards[i].ch <- shardMsg{kind: shardMsgOps, ops: buf}
		sh.cur[i] = <-sh.shards[i].free
	}
}

// barrier flushes pending ops and blocks until every shard has drained
// its queue and acknowledged msg-kind kind for interval g. On return
// the shard workers are idle (they cannot act again until the
// coordinator sends the next message), so shard state may be read
// directly.
func (sh *shardedAcc) barrier(kind int8, g int32) {
	sh.flush()
	sh.wg.Add(len(sh.shards))
	for _, s := range sh.shards {
		s.ch <- shardMsg{kind: kind, g: g, wg: &sh.wg}
	}
	sh.wg.Wait()
}

// seal closes interval g: barrier, k-way merge of the per-shard sorted
// columns into snap (plain Append in global ComparePrefix order — the
// same append order, hence the same running-total float sum, as the
// serial path), then an asynchronous recycle message letting each
// shard release the interval's rows while the coordinator moves on.
// Returns the number of flow rows evicted. When no ops were routed to
// the interval the barrier is skipped entirely and snap is left empty.
func (sh *shardedAcc) seal(g int, snap *core.FlowSnapshot) int {
	snap.Reset()
	k := g % len(sh.slotG)
	if sh.slotG[k] != int32(g) || sh.slotOps[k] == 0 {
		// Skipping the recycle round-trip also skips the shards' Advance
		// tick; that only defers frees, never accelerates them, so the
		// quarantine safety argument is unaffected.
		sh.publishRecords()
		return 0
	}
	sh.slotOps[k] = 0
	sh.barrier(shardMsgSeal, int32(g))
	evicted := 0
	for i, s := range sh.shards {
		sh.heads[i] = 0
		evicted += len(s.dirty)
	}
	for {
		best := -1
		var bestPf netip.Prefix
		for i, s := range sh.shards {
			h := sh.heads[i]
			if h >= len(s.dirty) {
				continue
			}
			p := s.pf[s.dirty[h]]
			if best < 0 || core.ComparePrefix(p, bestPf) < 0 {
				best, bestPf = i, p
			}
		}
		if best < 0 {
			break
		}
		s := sh.shards[best]
		snap.Append(bestPf, s.col[s.dirty[sh.heads[best]]])
		sh.heads[best]++
	}
	for _, s := range sh.shards {
		s.ch <- shardMsg{kind: shardMsgRecycle, g: int32(g)}
	}
	sh.publishRecords()
	return evicted
}

// publishRecords stores the coordinator's per-shard record counters
// into the atomics scrape handlers read.
func (sh *shardedAcc) publishRecords() {
	for i := range sh.recs {
		sh.pub[i].Store(sh.recs[i])
	}
}

// sync runs a plain barrier so the coordinator can read open-interval
// shard state (TotalBandwidth / ActiveFlows) coherently.
func (sh *shardedAcc) sync() { sh.barrier(shardMsgSync, -1) }

// close shuts the shard workers down and waits for them to exit.
func (sh *shardedAcc) close() {
	for _, s := range sh.shards {
		close(s.ch)
	}
	for _, s := range sh.shards {
		<-s.done
	}
}
