package core

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
)

// Lifecycle states of an ID slot.
const (
	flowLive uint8 = iota // interned, resolvable, in use
	flowFree              // on the free list, prefix cleared
)

// FlowTable interns flow prefixes into dense uint32 IDs — the flow
// identity layer of the hot path. Every component that keeps per-flow
// state across intervals (stream accumulator slots, latent-heat
// history) indexes flat columns by the IDs of the table it owns instead
// of hashing 24-byte netip.Prefix keys per record and per flow per
// interval.
//
// A table has one owner, and only the owner interns into it or
// releases from it: an ID is stable from Intern until its owner's
// Release, which drops the mapping and puts the ID on the free list for
// the next new prefix at once. An owner releases a flow only once no
// state of its own still names the ID. A column that crosses to another
// owner — a stream accumulator's sealed interval, carried into a
// pipeline — is translated into that owner's table by FillIDs, never
// indexed as it came.
//
// A FlowTable is single-goroutine, like the owner that drives it.
type FlowTable struct {
	ids      map[netip.Prefix]uint32
	prefixes []netip.Prefix // id -> prefix; zero value for free slots
	state    []uint8        // id -> lifecycle state
	free     []uint32       // released IDs, reused before the ID space grows
	pinned   bool

	// Lazily rebuilt prefix-rank column: ranks[id] is the position of
	// the ID's prefix in ComparePrefix order over all bound IDs, so
	// sorting an interval's dirty IDs into emission order costs integer
	// compares instead of 24-byte prefix compares. bindGen is bumped on
	// every id<->prefix (re)binding; a stale rank column is rebuilt on
	// demand.
	ranks   []int32
	rankIDs []uint32 // rank -> id, the inverse of ranks over bound IDs
	rankSet []uint64 // SortIDs scratch: a bitmap over ranks, all zero between calls
	bindGen uint64
	rankGen uint64

	// keyTab is InternKeyed's shortcut in front of ids: open-addressed,
	// linear probing, an entry is key<<32 | id+1 and 0 is empty. It is
	// only ever a hint — a hit counts once prefixes[id] matches — so
	// nothing here is invalidated when an ID is released, recycled or
	// its key is reused for another prefix; a stale entry is overwritten
	// by the map's answer. Kept at most half full; when it fills it is
	// resized for the flows bound now and left empty, to be refilled
	// through the map. len is 0 or a power of two.
	keyTab   []uint64
	keyCount int

	// foreignIDs is FillIDs' shortcut for ID columns stamped by another
	// table: foreignIDs[foreign ID] is this table's ID + 1 for the prefix
	// that foreign ID last arrived with, 0 for one not seen. A hint like
	// keyTab — a hit counts once prefixes[id] matches the row's key — so
	// neither table's releases and recycling invalidate anything; it is
	// as long as the highest foreign ID seen (the producer's Cap). foreign
	// is the table the entries were learnt from, held only to be compared
	// with the next column's stamp: its owner may be running on another
	// goroutine, so it is never dereferenced.
	foreign    *FlowTable
	foreignIDs []uint32
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{ids: make(map[netip.Prefix]uint32)}
}

// Len reports the number of interned mappings.
func (tb *FlowTable) Len() int { return len(tb.ids) }

// Cap reports the ID space size: every ID ever handed out is below Cap,
// so Cap is the length ID-indexed columns must be grown to.
func (tb *FlowTable) Cap() int { return len(tb.prefixes) }

// Intern returns the prefix's dense ID, assigning one on first sight:
// the most recently released ID if there is one, else a new one.
func (tb *FlowTable) Intern(p netip.Prefix) uint32 {
	if id, ok := tb.ids[p]; ok {
		return id
	}
	var id uint32
	if n := len(tb.free); n > 0 {
		id = tb.free[n-1]
		tb.free = tb.free[:n-1]
		tb.prefixes[id] = p
		tb.state[id] = flowLive
	} else {
		id = uint32(len(tb.prefixes))
		tb.prefixes = append(tb.prefixes, p)
		tb.state = append(tb.state, flowLive)
	}
	tb.ids[p] = id
	tb.bindGen++ // a new binding invalidates the rank column
	return id
}

// InternKeyed is Intern for a caller that holds a key for the prefix —
// any non-zero number it pairs with p every time, such as the routing
// table's index of the route p came from. A key seen before with the
// same prefix finds the ID by one probe of a small table instead of
// hashing the prefix. The key is never trusted: a hit is checked
// against the prefix bound to the ID, and everything else (key 0, an
// unknown key, a key last seen with another prefix, an ID recycled
// since) is answered by Intern, so the result always equals Intern(p).
// The shortcut's table has four to eight 8-byte slots per flow bound,
// whatever the range of the keys.
func (tb *FlowTable) InternKeyed(p netip.Prefix, key uint32) uint32 {
	if key == 0 {
		return tb.Intern(p)
	}
	// Fibonacci hashing: route indices are dense, their products are not.
	h := uint32(uint64(key) * 0x9E3779B97F4A7C15 >> 32)
	if n := uint32(len(tb.keyTab)); n != 0 {
		for i := h & (n - 1); tb.keyTab[i] != 0; i = (i + 1) & (n - 1) {
			e := tb.keyTab[i]
			if uint32(e>>32) != key {
				continue
			}
			id := uint32(e) - 1
			if tb.prefixes[id] == p && tb.state[id] != flowFree {
				return id
			}
			id = tb.Intern(p)
			tb.keyTab[i] = uint64(key)<<32 | uint64(id+1)
			return id
		}
	}
	id := tb.Intern(p)
	if (tb.keyCount+1)*2 > len(tb.keyTab) {
		tb.resetKeys()
	}
	mask := uint32(len(tb.keyTab) - 1)
	i := h & mask
	for tb.keyTab[i] != 0 {
		i = (i + 1) & mask
	}
	tb.keyTab[i] = uint64(key)<<32 | uint64(id+1)
	tb.keyCount++
	return id
}

// resetKeys empties the key table, sized so the flows bound now refill
// it to at most a quarter.
func (tb *FlowTable) resetKeys() {
	n := 64
	for n < 4*len(tb.ids) {
		n <<= 1
	}
	if n == len(tb.keyTab) {
		clear(tb.keyTab)
	} else {
		tb.keyTab = make([]uint64, n)
	}
	tb.keyCount = 0
}

// SortIDs puts ids — distinct bound IDs — into ComparePrefix order of
// their prefixes, in place. When the rank column is fresh, or ids are
// enough of the table to pay for rebuilding it, no comparison is made
// at all: each ID's rank is marked in a bitmap and the set bits, swept
// in ascending order, name the IDs back through the inverse
// permutation — O(len(ids) + bound/64). A huge table that just gained a
// binding, asked to order a handful of IDs, compares prefixes directly.
func (tb *FlowTable) SortIDs(ids []uint32) {
	if !tb.RanksFresh() && len(ids)*8 < tb.Len() {
		slices.SortFunc(ids, func(x, y uint32) int {
			return ComparePrefix(tb.prefixes[x], tb.prefixes[y])
		})
		return
	}
	ranks := tb.Ranks()
	words := (len(tb.rankIDs) + 63) / 64
	if len(tb.rankSet) < words {
		tb.rankSet = append(tb.rankSet, make([]uint64, words-len(tb.rankSet))...)
	}
	for _, id := range ids {
		r := ranks[id]
		tb.rankSet[r>>6] |= 1 << (r & 63)
	}
	k := 0
	for w, word := range tb.rankSet[:words] {
		for ; word != 0; word &= word - 1 {
			ids[k] = tb.rankIDs[w<<6|bits.TrailingZeros64(word)]
			k++
		}
		tb.rankSet[w] = 0
	}
	if k != len(ids) {
		panic(fmt.Sprintf("core: FlowTable.SortIDs: %d of %d ids are distinct and bound", k, len(ids)))
	}
}

// Ranks returns the prefix-rank column: ranks[id] orders bound IDs by
// ComparePrefix of their prefixes (free IDs hold garbage). The column
// is rebuilt — O(n log n) over the bound IDs — only when a binding
// changed since the last call; with a stable flow population it is a
// plain slice read. RanksFresh reports whether Ranks would rebuild,
// letting callers with few IDs to order skip the rebuild entirely.
func (tb *FlowTable) Ranks() []int32 {
	if tb.rankGen != tb.bindGen {
		tb.rankIDs = tb.rankIDs[:0]
		for id := range tb.state {
			if tb.state[id] != flowFree {
				tb.rankIDs = append(tb.rankIDs, uint32(id))
			}
		}
		slices.SortFunc(tb.rankIDs, func(a, b uint32) int {
			return ComparePrefix(tb.prefixes[a], tb.prefixes[b])
		})
		if n := len(tb.prefixes); len(tb.ranks) < n {
			tb.ranks = append(tb.ranks, make([]int32, n-len(tb.ranks))...)
		}
		for r, id := range tb.rankIDs {
			tb.ranks[id] = int32(r)
		}
		tb.rankGen = tb.bindGen
	}
	return tb.ranks
}

// RanksFresh reports whether the rank column is up to date with every
// binding (i.e. Ranks will not rebuild).
func (tb *FlowTable) RanksFresh() bool { return tb.rankGen == tb.bindGen }

// Lookup returns the prefix's ID without interning.
func (tb *FlowTable) Lookup(p netip.Prefix) (uint32, bool) {
	id, ok := tb.ids[p]
	return id, ok
}

// PrefixOf returns the prefix bound to id. The zero Prefix is returned
// for recycled (free) IDs.
func (tb *FlowTable) PrefixOf(id uint32) netip.Prefix { return tb.prefixes[id] }

// Prefixes exposes the id->prefix column for hot loops that resolve
// many IDs (e.g. sorting an interval's dirty IDs into prefix order).
// Shared storage; do not modify, and do not hold across Intern calls.
func (tb *FlowTable) Prefixes() []netip.Prefix { return tb.prefixes }

// Pin freezes the ID space: Release becomes a no-op, so every mapping
// stays resolvable for the table's lifetime and IDs are never
// recycled. Callers that cache ID columns outside the table — the
// batch engine's row→ID column over a whole series — pin the table,
// because a cached ID must keep resolving to its prefix even after the
// classifier evicts the flow's state. Pinning cannot be undone.
func (tb *FlowTable) Pin() { tb.pinned = true }

// Release frees an ID: the mapping is dropped and the ID goes onto the
// free list, to be bound to the next new prefix. On a pinned table
// Release is a no-op. Releasing a free ID is a programming error and
// panics.
func (tb *FlowTable) Release(id uint32) {
	if int(id) >= len(tb.state) || tb.state[id] == flowFree {
		panic(fmt.Sprintf("core: FlowTable.Release of non-interned id %d", id))
	}
	if tb.pinned {
		return
	}
	delete(tb.ids, tb.prefixes[id])
	tb.prefixes[id] = netip.Prefix{}
	tb.state[id] = flowFree
	tb.free = append(tb.free, id)
}

// FillIDs attaches the snapshot's ID column against this table, every
// ids[i] equal to Intern(keys[i]) — the bridge for producers that
// assemble snapshots without this table. A column already stamped as
// coming from this table is left untouched, so consumers can never
// index another table's IDs into their flow state. An unstamped
// snapshot (batch Series emission, tests) is interned key by key. A
// column stamped by another table — a stream accumulator's own, stepped
// as emitted or carried across a stage boundary by CopyFrom — is
// translated:
// each foreign ID indexes the foreignIDs column, and the entry counts
// only under InternKeyed's rule, so the prefix is hashed just on a
// flow's first sight and after either side recycled its ID. Keys are
// visited in snapshot order and a hit returns what Intern would, so
// the column and the table end up exactly as if every key had been
// interned.
func (tb *FlowTable) FillIDs(s *FlowSnapshot) {
	switch {
	case !s.HasIDs() || s.idTable == nil:
		s.ids = s.ids[:0]
		for _, p := range s.keys {
			s.ids = append(s.ids, tb.Intern(p))
		}
	case s.idTable == tb:
		return
	default:
		tb.translateIDs(s)
	}
	s.idTable = tb
}

// translateIDs rewrites a complete ID column stamped by another table
// into this table's IDs, in place.
func (tb *FlowTable) translateIDs(s *FlowSnapshot) {
	if tb.foreign != s.idTable {
		// Another table's IDs mean other prefixes: nothing carries over.
		tb.foreign = s.idTable
		clear(tb.foreignIDs)
	}
	for i, fid := range s.ids {
		if int(fid) >= len(tb.foreignIDs) {
			tb.foreignIDs = append(tb.foreignIDs, make([]uint32, int(fid)+1-len(tb.foreignIDs))...)
		}
		p := s.keys[i]
		if e := tb.foreignIDs[fid]; e != 0 {
			if id := e - 1; tb.prefixes[id] == p && tb.state[id] != flowFree {
				s.ids[i] = id
				continue
			}
		}
		id := tb.Intern(p)
		tb.foreignIDs[fid] = id + 1
		s.ids[i] = id
	}
}
