package bgp

import "math/bits"

// lpm is the IPv4 longest-prefix-match index: two levels, leaf-pushed,
// held in pointer-free memory the garbage collector never scans.
//
// Level one is a direct table over the top 16 address bits. A root
// entry is either a leaf (the longest route of length ≤ 16 covering
// that /16, or 0 for none) or, once a route longer than /16 lands in
// the /16, the arena offset of its run with bucketBit set.
//
// Level two is one run per such /16: a header span whose leaf field
// counts the spans that follow, then that many spans sorted by start.
// The spans are disjoint and cover the whole /16 — span i answers low
// halves [start[i], start[i+1]) — and every span's leaf is already the
// longest match for its range (shorter covering routes are pushed down
// into the gaps between longer ones), so a lookup is: root entry, run
// header, binary search inside one contiguous run.
//
// Those are three dependent loads, and on a table larger than the cache
// the first two usually miss. lookup takes them for one address;
// lookupEach takes them for a chunk of addresses one level at a time, so
// the misses of a level are independent loads the core overlaps instead
// of a chain it waits out address by address. Both end in the same spans
// and find.
//
// Insert keeps the structure exact at every step; nothing is built
// lazily, so a table that is no longer being written may be read from
// any number of goroutines.
type lpm struct {
	arena []span
	// free[c] heads a list of released slots of 2^c spans, linked
	// through the leaf field of each slot's first span.
	free [maxClass + 1]uint32
	// root stays the last field: the fields above are all the pointers
	// the enclosing Table has, so the collector stops before this array.
	root [1 << 16]uint32
}

// span is one entry of a run: the low 16 address bits it starts at and
// the leaf that answers from there to the next span's start.
type span struct {
	leaf  uint32
	start uint16
}

// A leaf packs the matched route: bits 0–24 hold its index into
// Table.routes plus one (so 0 means "no route"), bits 25–30 its prefix
// length. Bit 31 is clear in a leaf; a root entry with it set is a
// bucket reference.
const (
	leafIdxBits = 25
	leafIdxMask = 1<<leafIdxBits - 1
	bucketBit   = 1 << 31

	// maxRoutes is how many routes a leaf's index field can name.
	maxRoutes = leafIdxMask

	// A slot of class c holds a header and up to 2^c−1 spans. Buckets
	// open at minClass (a first long route makes 2–3 spans); 65536
	// host routes in one /16 need maxClass.
	minClass = 2
	maxClass = 17
)

func makeLeaf(idx, plen int) uint32 { return uint32(plen)<<leafIdxBits | uint32(idx+1) }

// leafIndex is the index into Table.routes of the route a leaf names.
func leafIndex(leaf uint32) int { return int(leaf&leafIdxMask) - 1 }

// leafLen is the prefix length of the route a leaf names; 0 for the
// empty leaf, which therefore yields to every route.
func leafLen(leaf uint32) int { return int(leaf >> leafIdxBits) }

// slotClass is the class of the slot a run of n spans lives in.
func slotClass(n uint32) int { return max(minClass, bits.Len32(n)) }

// lookup returns the leaf for addr, 0 when no route covers it.
func (l *lpm) lookup(addr uint32) uint32 {
	e := l.root[addr>>16]
	if e&bucketBit == 0 {
		return e
	}
	run := l.run(e &^ bucketBit)
	return run[find(run, uint16(addr))].leaf
}

// lookupChunk is how many addresses lookupEach resolves at once: a full
// NetFlow v5 datagram (30 records) rounded up to a power of two.
const lookupChunk = 32

// lookupEach sets leaves[i] to lookup(addrs[i]) for at most lookupChunk
// addresses, level by level: every address's root entry, then the run
// header of every bucketed one, then the search inside each run. The
// first two passes are nothing but the loads, so that a chunk's worth of
// them fits the core's window and is in flight at once.
func (l *lpm) lookupEach(addrs, leaves []uint32) {
	leaves = leaves[:len(addrs)]
	for i, a := range addrs {
		leaves[i] = l.root[a>>16]
	}
	var counts [lookupChunk]uint32
	for i, e := range leaves {
		if e&bucketBit != 0 {
			counts[i] = l.arena[e&^bucketBit].leaf
		}
	}
	for i, e := range leaves {
		if e&bucketBit != 0 {
			run := l.spans(e&^bucketBit, counts[i])
			leaves[i] = run[find(run, uint16(addrs[i]))].leaf
		}
	}
}

// run returns the spans of the run whose header is at off.
func (l *lpm) run(off uint32) []span { return l.spans(off, l.arena[off].leaf) }

// spans returns the n spans that follow the run header at off.
func (l *lpm) spans(off, n uint32) []span { return l.arena[off+1 : off+1+n] }

// find returns the index of the span containing lo: the last one that
// starts at or before it. run[0] starts at 0, so one always does. The
// step is arithmetic, not a branch: which half holds lo is a coin toss
// the predictor loses, and a lost toss discards the loads already in
// flight for the addresses that follow in lookupEach.
func find(run []span, lo uint16) int {
	i := 0
	for n := len(run); n > 1; {
		half := n >> 1
		// below is all ones when run[i+half] starts after lo.
		below := (int(lo) - int(run[i+half].start)) >> 63
		i += half &^ below
		n -= half
	}
	return i
}

// insert makes leaf (a route of length plen at addr) the answer for
// every address it covers that no longer route already claims. An
// equally long occupant can only be the same route, so "not longer"
// is the whole test.
func (l *lpm) insert(addr uint32, plen int, leaf uint32) {
	slot := addr >> 16
	if plen <= 16 {
		for end := slot + 1<<(16-plen); slot < end; slot++ {
			e := l.root[slot]
			if e&bucketBit != 0 {
				claim(l.run(e&^bucketBit), plen, leaf)
			} else if leafLen(e) <= plen {
				l.root[slot] = leaf
			}
		}
		return
	}

	e := l.root[slot]
	if e&bucketBit == 0 {
		// First long route in this /16: open a bucket whose single
		// span pushes the root's answer down over the whole range.
		off := l.alloc(minClass)
		l.arena[off] = span{leaf: 1}
		l.arena[off+1] = span{leaf: e}
		e = bucketBit | off
		l.root[slot] = e
	}
	lo := uint16(addr)
	hi := lo | uint16(0xFFFF)>>(plen-16)
	off := l.splitAt(slot, e&^bucketBit, lo)
	if hi != 0xFFFF {
		off = l.splitAt(slot, off, hi+1)
	}
	run := l.run(off)
	first := find(run, lo)
	last := first
	for last < len(run) && run[last].start <= hi {
		last++
	}
	claim(run[first:last], plen, leaf)
}

// claim hands leaf every span that holds no longer route.
func claim(run []span, plen int, leaf uint32) {
	for i := range run {
		if leafLen(run[i].leaf) <= plen {
			run[i].leaf = leaf
		}
	}
}

// splitAt makes a span boundary at low-half value at in the run at off
// (the bucket of root entry slot) and returns the run's offset, which
// changes when the run outgrows its slot.
func (l *lpm) splitAt(slot, off uint32, at uint16) uint32 {
	run := l.run(off)
	i := find(run, at)
	if run[i].start == at {
		return off
	}
	n := uint32(len(run))
	if c := slotClass(n + 1); c != slotClass(n) {
		grown := l.alloc(c)
		copy(l.arena[grown:], l.arena[off:off+1+n])
		l.release(off, slotClass(n))
		off = grown
		l.root[slot] = bucketBit | off
	}
	l.arena[off].leaf = n + 1
	run = l.run(off)
	copy(run[i+2:], run[i+1:])
	run[i+1] = span{leaf: run[i].leaf, start: at}
	return off
}

// alloc returns the offset of a slot of 2^c spans.
func (l *lpm) alloc(c int) uint32 {
	if off := l.free[c]; off != 0 {
		l.free[c] = l.arena[off].leaf
		return off
	}
	if len(l.arena) == 0 {
		// Offset 0 means "no slot". Reserving a whole minClass slot
		// keeps every slot of that class inside one cache line.
		l.arena = make([]span, 1<<minClass)
	}
	off := uint32(len(l.arena))
	l.arena = append(l.arena, make([]span, 1<<c)...)
	return off
}

// release puts the slot of class c at off on its free list.
func (l *lpm) release(off uint32, c int) {
	l.arena[off].leaf = l.free[c]
	l.free[c] = off
}
