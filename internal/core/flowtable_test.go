package core

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
)

func TestFlowTableInternLookup(t *testing.T) {
	tb := NewFlowTable()
	a, b := pfx(1), pfx(2)
	ida := tb.Intern(a)
	idb := tb.Intern(b)
	if ida == idb {
		t.Fatalf("distinct prefixes share id %d", ida)
	}
	if got := tb.Intern(a); got != ida {
		t.Errorf("re-intern changed id: %d -> %d", ida, got)
	}
	if id, ok := tb.Lookup(a); !ok || id != ida {
		t.Errorf("Lookup(a) = %d,%v", id, ok)
	}
	if _, ok := tb.Lookup(pfx(9)); ok {
		t.Error("Lookup of never-interned prefix succeeded")
	}
	if tb.PrefixOf(ida) != a || tb.PrefixOf(idb) != b {
		t.Error("PrefixOf does not invert Intern")
	}
	if tb.Len() != 2 || tb.Cap() < 2 {
		t.Errorf("Len=%d Cap=%d", tb.Len(), tb.Cap())
	}
}

// TestFlowTableReleaseRecycles: Release drops the mapping at once and
// the next new prefix is bound to the freed ID.
func TestFlowTableReleaseRecycles(t *testing.T) {
	tb := NewFlowTable()
	a, b := pfx(1), pfx(2)
	ida := tb.Intern(a)
	idb := tb.Intern(b)
	tb.Release(ida)
	if _, ok := tb.Lookup(a); ok || tb.Len() != 1 {
		t.Fatalf("released mapping still resolvable (Len %d)", tb.Len())
	}
	if p := tb.PrefixOf(ida); p != (netip.Prefix{}) {
		t.Errorf("free ID %d resolves to %v, want the zero Prefix", ida, p)
	}
	if got := tb.Intern(b); got != idb {
		t.Errorf("bound b moved from id %d to %d", idb, got)
	}
	if idc := tb.Intern(pfx(3)); idc != ida {
		t.Errorf("released ID %d not recycled (got %d)", ida, idc)
	}
	if tb.PrefixOf(ida) != pfx(3) || tb.Cap() != 2 {
		t.Errorf("recycled ID resolves to %v, Cap %d", tb.PrefixOf(ida), tb.Cap())
	}
	if got := tb.Intern(a); got == ida || got == idb {
		t.Errorf("returning a took bound id %d", got)
	}
}

func TestFlowTablePinned(t *testing.T) {
	tb := NewFlowTable()
	a := pfx(1)
	ida := tb.Intern(a)
	tb.Pin()
	tb.Release(ida) // must be a no-op
	if id, ok := tb.Lookup(a); !ok || id != ida {
		t.Fatalf("pinned mapping recycled: %d,%v", id, ok)
	}
	if tb.PrefixOf(ida) != a {
		t.Fatal("pinned PrefixOf lost")
	}
	// Releasing again (e.g. the classifier evicting a re-admitted flow)
	// must stay harmless.
	tb.Release(ida)
}

func TestFlowTableRanks(t *testing.T) {
	tb := NewFlowTable()
	// Intern out of prefix order so rank != id.
	order := []int{5, 1, 9, 3, 7}
	ids := make([]uint32, len(order))
	for i, n := range order {
		ids[i] = tb.Intern(pfx(n))
	}
	if tb.RanksFresh() {
		t.Error("ranks reported fresh before first build")
	}
	ranks := tb.Ranks()
	if !tb.RanksFresh() {
		t.Error("ranks stale right after rebuild")
	}
	// pfx(n) order is by n: 1 < 3 < 5 < 7 < 9.
	wantRank := map[int]int32{1: 0, 3: 1, 5: 2, 7: 3, 9: 4}
	for i, n := range order {
		if ranks[ids[i]] != wantRank[n] {
			t.Errorf("rank of pfx(%d) = %d, want %d", n, ranks[ids[i]], wantRank[n])
		}
	}
	tb.Intern(pfx(2)) // new binding invalidates
	if tb.RanksFresh() {
		t.Error("ranks fresh after new binding")
	}
	ranks = tb.Ranks()
	if id2, _ := tb.Lookup(pfx(2)); ranks[id2] != 1 {
		t.Errorf("rank of inserted pfx(2) = %d, want 1", ranks[id2])
	}
}

// TestFlowTableSortIDs: the comparison-free bitmap sweep and the direct
// prefix sort are the same order, on a table with free and recycled IDs
// in it, whether the rank column is fresh or stale.
func TestFlowTableSortIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := NewFlowTable()
	for _, n := range rng.Perm(300) {
		tb.Intern(pfx(n))
	}
	for n := 0; n < 300; n += 3 { // a third released, 40 of those recycled
		id, _ := tb.Lookup(pfx(n))
		tb.Release(id)
	}
	for n := 300; n < 340; n++ {
		tb.Intern(pfx(n))
	}
	var bound []uint32
	for n := 0; n < 340; n++ {
		if id, ok := tb.Lookup(pfx(n)); ok {
			bound = append(bound, id)
		}
	}
	for _, size := range []int{0, 1, 5, len(bound) / 8, len(bound) / 2, len(bound)} {
		for _, fresh := range []bool{false, true} {
			rng.Shuffle(len(bound), func(i, j int) { bound[i], bound[j] = bound[j], bound[i] })
			ids := slices.Clone(bound[:size])
			want := slices.Clone(ids)
			slices.SortFunc(want, func(x, y uint32) int { return ComparePrefix(tb.PrefixOf(x), tb.PrefixOf(y)) })
			if tb.bindGen++; fresh {
				tb.Ranks()
			}
			tb.SortIDs(ids)
			if !slices.Equal(ids, want) {
				t.Fatalf("SortIDs of %d ids (ranks fresh: %v) = %v, want %v", size, fresh, ids, want)
			}
		}
	}
}

// TestFlowTableInternKeyedStaleKey walks the one way a key can point at
// the wrong flow: its ID was recycled to another prefix.
func TestFlowTableInternKeyedStaleKey(t *testing.T) {
	tb := NewFlowTable()
	a, b := pfx(1), pfx(2)
	ida := tb.InternKeyed(a, 7)
	if got := tb.InternKeyed(a, 7); got != ida {
		t.Fatalf("keyed re-intern changed id: %d -> %d", ida, got)
	}
	tb.Release(ida)
	if idb := tb.Intern(b); idb != ida {
		t.Fatalf("b got id %d, want the recycled %d", idb, ida)
	}
	ida2 := tb.InternKeyed(a, 7)
	if ida2 == ida || tb.PrefixOf(ida2) != a || tb.PrefixOf(ida) != b {
		t.Fatalf("stale key 7 -> id %d (a is %v there); b's id %d holds %v", ida2, tb.PrefixOf(ida2), ida, tb.PrefixOf(ida))
	}
	if got := tb.InternKeyed(b, 7); got != ida { // the key moves to b
		t.Fatalf("InternKeyed(b, 7) = %d, want %d", got, ida)
	}
	if got := tb.InternKeyed(a, 7); got != ida2 { // and back
		t.Fatalf("InternKeyed(a, 7) = %d, want %d", got, ida2)
	}
}

// TestFlowTableInternKeyedSizedByFlows: the key table grows with the
// flows bound, however large the keys are and however many of them
// have been seen, and agrees with the prefix map throughout.
func TestFlowTableInternKeyedSizedByFlows(t *testing.T) {
	tb := NewFlowTable()
	const flows = 1000
	for round := 0; round < 3; round++ {
		for n := 0; n < flows; n++ {
			// Each round brings every flow under a key of its own, as a
			// link sees after the routing table is replaced.
			key := uint32(round*flows+n+1) * 16001
			want, bound := tb.Lookup(pfx(n))
			if id := tb.InternKeyed(pfx(n), key); bound && id != want || tb.PrefixOf(id) != pfx(n) {
				t.Fatalf("round %d: InternKeyed(pfx(%d), %d) = %d (%v), the map says %d", round, n, key, id, tb.PrefixOf(id), want)
			}
		}
	}
	if n := len(tb.keyTab); n < 2*flows || n > 8*flows {
		t.Errorf("%d flows under %d keys: key table has %d slots, want 4–8 a flow", flows, 3*flows, n)
	}
}

func TestFillIDs(t *testing.T) {
	tb := NewFlowTable()
	s := NewFlowSnapshot(4)
	for i := 0; i < 4; i++ {
		s.Append(pfx(i), float64(i+1))
	}
	if s.HasIDs() {
		t.Fatal("plain snapshot claims IDs")
	}
	tb.FillIDs(s)
	if !s.HasIDs() {
		t.Fatal("FillIDs did not attach a complete column")
	}
	for i := 0; i < s.Len(); i++ {
		if tb.PrefixOf(s.ID(i)) != s.Key(i) {
			t.Errorf("row %d: id %d resolves to %v, want %v", i, s.ID(i), tb.PrefixOf(s.ID(i)), s.Key(i))
		}
	}
	// Idempotent: a second fill must not re-intern or grow the column.
	n := tb.Len()
	tb.FillIDs(s)
	if tb.Len() != n || len(s.IDs()) != s.Len() {
		t.Error("second FillIDs changed state")
	}
}

// FuzzFlowTable drives random intern/release sequences and checks the
// structural invariants the hot path relies on: no operation panics,
// Intern is a bijection over the bound IDs (two resolvable prefixes
// never share an ID, and every resolvable mapping round-trips through
// PrefixOf), and recycling can never leave a recycled ID aliased by two
// live prefixes. An op with bit 6 set releases the prefix its low four
// bits name, if bound; bit 7 is unused. Bits 4–5 of an intern op pick
// how the prefix is interned: plainly, or through InternKeyed with the
// prefix's own key, with a key four prefixes share (a route replaced,
// or a key from another routing table), or with a key never seen
// before and far above the table's size (which also fills the key
// table until it is emptied and resized); a fresh key of 0 is the "no
// key" value. Whatever the key, InternKeyed must answer as the prefix
// map does.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x40, 0, 0x41, 0})
	f.Add([]byte{5, 5, 0x45, 0x45, 5})
	// Own key, released, recycled to another prefix, then the stale key.
	f.Add([]byte{0x15, 0x45, 0x06, 0x15, 0x16})
	// One shared key walking over four prefixes, with and without it.
	f.Add([]byte{0x20, 0x24, 0x28, 0x2c, 0x20, 0x04, 0x60, 0x24, 0x20})
	// Enough fresh keys to empty and resize the key table twice, own
	// keys before, between and after.
	f.Add(append(append(append([]byte{0x11, 0x12}, bytes.Repeat([]byte{0x31, 0x13, 0x32}, 15)...), 0x11, 0x12, 0x13), bytes.Repeat([]byte{0x34, 0x11}, 40)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := NewFlowTable()
		pool := make([]netip.Prefix, 16)
		for i := range pool {
			pool[i] = pfx(i)
		}
		for i, op := range ops {
			switch {
			case op&0x40 != 0:
				if id, ok := tb.Lookup(pool[op&0x0f]); ok {
					tb.Release(id)
				}
			default:
				p := pool[op&0x0f]
				key := [4]uint32{0, uint32(op&0x0f) + 1, uint32(op&0x03) + 1, uint32(i) << 12}[op>>4&3]
				want, bound := tb.Lookup(p)
				id := tb.InternKeyed(p, key)
				if bound && id != want {
					t.Fatalf("InternKeyed(%v, %d) = id %d, the map says %d", p, key, id, want)
				}
				if got := tb.PrefixOf(id); got != p || tb.state[id] != flowLive {
					t.Fatalf("InternKeyed(%v, %d) -> id %d -> PrefixOf %v, state %d", p, key, id, got, tb.state[id])
				}
				if n := len(tb.keyTab); tb.keyCount*2 > n || n&(n-1) != 0 {
					t.Fatalf("key table holds %d keys in %d slots", tb.keyCount, n)
				}
			}
			// Bijection over resolvable mappings.
			rev := make(map[uint32]netip.Prefix)
			for _, p := range pool {
				id, ok := tb.Lookup(p)
				if !ok {
					continue
				}
				if other, dup := rev[id]; dup {
					t.Fatalf("id %d aliased by %v and %v", id, other, p)
				}
				rev[id] = p
				if tb.PrefixOf(id) != p {
					t.Fatalf("mapping %v -> %d does not round-trip (PrefixOf = %v)", p, id, tb.PrefixOf(id))
				}
			}
			if tb.Len() != len(rev) {
				t.Fatalf("Len %d != %d resolvable mappings", tb.Len(), len(rev))
			}
			if tb.Cap() < tb.Len() {
				t.Fatalf("Cap %d < Len %d", tb.Cap(), tb.Len())
			}
		}
	})
}

// TestStepReintersForeignIDColumn is the regression pin for a producer
// interning into a table of its own, as every stream accumulator does:
// the emitted ID column is stamped with the foreign table, so the
// pipeline must re-intern against its own table — indexing foreign IDs
// used to panic (or worse, silently read another flow's history).
func TestStepReintersForeignIDColumn(t *testing.T) {
	det, err := NewConstantLoadDetector(0.8)
	if err != nil {
		t.Fatal(err)
	}
	lh, err := NewLatentHeatClassifier(3)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(Config{Detector: det, Alpha: 0.5, Classifier: lh, MinFlows: 2})
	if err != nil {
		t.Fatal(err)
	}
	foreign := NewFlowTable()
	// IDs deliberately disjoint from anything pipe's empty table holds.
	for i := 100; i < 164; i++ {
		foreign.Intern(pfx(i))
	}
	for step := 0; step < 6; step++ {
		s := NewFlowSnapshot(8)
		s.SetIDTable(foreign)
		for i := 0; i < 8; i++ {
			s.AppendID(pfx(i), foreign.Intern(pfx(i)), 1e4*float64(i+1))
		}
		res, err := pipe.Step(s)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if s.IDTable() != pipe.Table() {
			t.Fatalf("step %d: foreign ID column not re-interned", step)
		}
		if res.ActiveFlows != 8 {
			t.Fatalf("step %d: ActiveFlows = %d", step, res.ActiveFlows)
		}
	}
	// The classifier's state must be keyed by the pipeline's table: the
	// steady heavy flows are elephants, resolvable by prefix.
	if lh.TrackedFlows() != 8 {
		t.Fatalf("tracked %d flows, want 8", lh.TrackedFlows())
	}
	if _, ok := lh.LatentHeat(pfx(7)); !ok {
		t.Fatal("heaviest flow unknown to the classifier after re-interning")
	}
}

// TestFlowTableMisusePanics: releasing an ID the table never bound, and
// sorting IDs that are not distinct, panic with core's own message.
func TestFlowTableMisusePanics(t *testing.T) {
	tb := NewFlowTable()
	tb.Intern(netip.MustParsePrefix("10.0.0.0/24"))
	for _, tc := range []struct {
		want string
		f    func()
	}{
		{"Release of non-interned id 1", func() { tb.Release(1) }},
		{"1 of 2 ids are distinct and bound", func() { tb.SortIDs([]uint32{0, 0}) }},
	} {
		if got := panicMessage(tc.f); !strings.Contains(got, tc.want) {
			t.Errorf("panic %q, want one containing %q", got, tc.want)
		}
	}
}
