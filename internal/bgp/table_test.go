package bgp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustInsert(t *testing.T, tab *Table, prefix string, as uint32, tier Tier) {
	t.Helper()
	if err := tab.Insert(Route{Prefix: netip.MustParsePrefix(prefix), OriginAS: as, Tier: tier}); err != nil {
		t.Fatalf("Insert(%s): %v", prefix, err)
	}
}

func TestLookupLongestPrefixMatch(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.0.0.0/8", 1, Tier1)
	mustInsert(t, tab, "10.1.0.0/16", 2, Tier2)
	mustInsert(t, tab, "10.1.2.0/24", 3, Tier3)
	mustInsert(t, tab, "10.1.2.128/25", 4, Tier3)

	cases := []struct {
		addr string
		as   uint32
	}{
		{"10.9.9.9", 1},   // only the /8 covers
		{"10.1.9.9", 2},   // /16 beats /8
		{"10.1.2.5", 3},   // /24 beats /16
		{"10.1.2.200", 4}, // /25 beats /24
		{"10.1.2.127", 3}, // below the /25
		{"10.255.255.255", 1},
	}
	for _, tc := range cases {
		r, ok := tab.Lookup(netip.MustParseAddr(tc.addr))
		if !ok {
			t.Errorf("Lookup(%s): no route", tc.addr)
			continue
		}
		if r.OriginAS != tc.as {
			t.Errorf("Lookup(%s) = AS%d, want AS%d", tc.addr, r.OriginAS, tc.as)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.0.0.0/8", 1, Tier1)
	if _, ok := tab.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("lookup outside all routes succeeded")
	}
	if _, ok := NewTable().Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("lookup in empty table succeeded")
	}
}

func TestLookupDefaultRoute(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "0.0.0.0/0", 99, Tier1)
	r, ok := tab.Lookup(netip.MustParseAddr("203.0.113.9"))
	if !ok || r.OriginAS != 99 {
		t.Errorf("default route: %+v, ok=%v", r, ok)
	}
}

func TestLookup4In6(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "192.0.2.0/24", 7, Tier2)
	r, ok := tab.Lookup(netip.MustParseAddr("::ffff:192.0.2.5"))
	if !ok || r.OriginAS != 7 {
		t.Errorf("4-in-6 lookup: %+v ok=%v", r, ok)
	}
}

// TestInsertMappedPrefix: an IPv4-mapped prefix is the IPv4 prefix it
// denotes, reachable by plain and by mapped probes (it used to be stored
// where no lookup searched).
func TestInsertMappedPrefix(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "::ffff:10.0.0.0/104", 7, Tier2)
	mustInsert(t, tab, "10.0.0.0/8", 8, Tier1) // same route, plain spelling
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want mapped and plain spellings to be one route", tab.Len())
	}
	want := netip.MustParsePrefix("10.0.0.0/8")
	for _, probe := range []string{"10.1.2.3", "::ffff:10.1.2.3"} {
		r, ok := tab.Lookup(netip.MustParseAddr(probe))
		if !ok || r.Prefix != want || r.OriginAS != 8 {
			t.Errorf("Lookup(%s) = %+v ok=%v, want %v AS8", probe, r, ok, want)
		}
		if p, ok := tab.LookupPrefix(netip.MustParseAddr(probe)); !ok || p != want {
			t.Errorf("LookupPrefix(%s) = %v ok=%v, want %v", probe, p, ok, want)
		}
	}
	// Shorter than /96 it covers more than the mapped block: a true
	// IPv6 route, which IPv6 probes match and IPv4 ones do not.
	mustInsert(t, tab, "::ffff:0:0/90", 9, Tier3)
	if r, ok := tab.Lookup(netip.MustParseAddr("::fffe:1:2")); !ok || r.OriginAS != 9 {
		t.Errorf("IPv6 probe under the /90: %+v ok=%v", r, ok)
	}
	if _, ok := tab.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("the /90 IPv6 route answered an IPv4 probe")
	}
}

func TestLookupIPv6ExactFallback(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "2001:db8::/32", 8, Tier1)
	r, ok := tab.Lookup(netip.MustParseAddr("2001:db8::1234"))
	if !ok || r.OriginAS != 8 {
		t.Errorf("IPv6 lookup: %+v ok=%v", r, ok)
	}
	if _, ok := tab.Lookup(netip.MustParseAddr("2001:db9::1")); ok {
		t.Error("IPv6 miss matched")
	}
}

func TestInsertReplaces(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.0.0.0/8", 1, Tier1)
	mustInsert(t, tab, "10.0.0.0/8", 2, Tier2)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replacement", tab.Len())
	}
	r, _ := tab.Lookup(netip.MustParseAddr("10.0.0.1"))
	if r.OriginAS != 2 {
		t.Errorf("AS = %d, want 2 (replaced)", r.OriginAS)
	}
}

func TestInsertMasksHostBits(t *testing.T) {
	tab := NewTable()
	mustInsert(t, tab, "10.1.2.3/16", 5, Tier1) // host bits set
	r, ok := tab.Lookup(netip.MustParseAddr("10.1.99.99"))
	if !ok || r.Prefix != netip.MustParsePrefix("10.1.0.0/16") {
		t.Errorf("masked insert: %+v ok=%v", r, ok)
	}
}

func TestInsertInvalidPrefix(t *testing.T) {
	if err := NewTable().Insert(Route{}); err == nil {
		t.Error("zero prefix accepted")
	}
}

// TestLookupKey: the key is the index, plus one, of the route Lookup
// returns — for IPv4, IPv4-mapped and IPv6 probes, for mapped and plain
// spellings of one route, and still after the route is replaced. All of
// a round's probes, the zero Addr among them, then go through one
// LookupKeys call, which must repeat LookupKey's answers in order.
func TestLookupKey(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 500, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tab, "2001:db8::/32", 8, Tier1)
	mustInsert(t, tab, "2001:db8:1::/48", 9, Tier2)
	mustInsert(t, tab, "::ffff:198.18.0.0/111", 10, Tier3) // stored as 198.18.0.0/15
	var probed []netip.Addr
	check := func(addr netip.Addr) {
		t.Helper()
		probed = append(probed, addr)
		r, ok := tab.Lookup(addr)
		p, key, keyOK := tab.LookupKey(addr)
		if keyOK != ok {
			t.Fatalf("LookupKey(%v) ok=%v, Lookup ok=%v", addr, keyOK, ok)
		}
		if !ok {
			if key != 0 {
				t.Fatalf("LookupKey(%v) missed with key %d", addr, key)
			}
			return
		}
		if key == 0 || tab.Routes()[key-1] != r || p != r.Prefix {
			t.Fatalf("LookupKey(%v) = %v key %d, Lookup = %+v", addr, p, key, r)
		}
	}
	probe := func() {
		t.Helper()
		rng := rand.New(rand.NewSource(16))
		for _, r := range tab.Routes() {
			if r.Prefix.Addr().Is4() {
				addr := RandomAddrInPrefix(rng, r.Prefix)
				check(addr)
				check(netip.AddrFrom16(addr.As16())) // the mapped spelling
			}
		}
		for _, v6 := range []string{"2001:db8::1", "2001:db8:1::1", "2001:db9::1", "0.0.0.1", "::ffff:0.0.0.1"} {
			check(netip.MustParseAddr(v6))
		}
		check(netip.Addr{})
		prefixes, keys := make([]netip.Prefix, len(probed)), make([]uint32, len(probed))
		tab.LookupKeys(probed, prefixes, keys)
		for i, addr := range probed {
			if p, key, _ := tab.LookupKey(addr); prefixes[i] != p || keys[i] != key {
				t.Fatalf("LookupKeys[%d] (%v) = %v key %d, LookupKey = %v key %d", i, addr, prefixes[i], keys[i], p, key)
			}
		}
		probed = probed[:0]
	}
	probe()
	_, before, _ := tab.LookupKey(netip.MustParseAddr("198.18.0.1"))
	mustInsert(t, tab, "198.18.0.0/15", 11, Tier1) // replaces the mapped insert
	mustInsert(t, tab, "2001:db8:1::/48", 12, Tier1)
	if _, after, _ := tab.LookupKey(netip.MustParseAddr("::ffff:198.18.0.1")); after != before || tab.Routes()[after-1].OriginAS != 11 {
		t.Errorf("key %d -> %d across a replace (route now %+v)", before, after, tab.Routes()[after-1])
	}
	probe()
}

// TestLookupAgainstLinearScan cross-checks the trie against a brute-force
// longest-prefix match over random tables and probes.
func TestLookupAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tab, err := Generate(GenConfig{Routes: 2000, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	routes := tab.Routes()
	linear := func(addr netip.Addr) (Route, bool) {
		best := -1
		for i, r := range routes {
			if r.Prefix.Contains(addr) && (best < 0 || r.Prefix.Bits() > routes[best].Prefix.Bits()) {
				best = i
			}
		}
		if best < 0 {
			return Route{}, false
		}
		return routes[best], true
	}
	for i := 0; i < 3000; i++ {
		var addr netip.Addr
		if i%2 == 0 {
			// Probe inside a random route for guaranteed hits.
			addr = RandomAddrInPrefix(rng, routes[rng.Intn(len(routes))].Prefix)
		} else {
			var b [4]byte
			rng.Read(b[:])
			addr = netip.AddrFrom4(b)
		}
		got, gotOK := tab.Lookup(addr)
		want, wantOK := linear(addr)
		if gotOK != wantOK {
			t.Fatalf("Lookup(%v): ok=%v, linear ok=%v", addr, gotOK, wantOK)
		}
		if gotOK && got.Prefix != want.Prefix {
			t.Fatalf("Lookup(%v) = %v, linear = %v", addr, got.Prefix, want.Prefix)
		}
	}
}

func TestTextRoundtrip(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tab.Len() {
		t.Fatalf("roundtrip Len = %d, want %d", back.Len(), tab.Len())
	}
	for _, r := range tab.Routes() {
		got, ok := back.Lookup(RandomAddrInPrefix(rand.New(rand.NewSource(1)), r.Prefix))
		if !ok {
			t.Fatalf("route %v lost in roundtrip", r.Prefix)
		}
		_ = got
	}
	// Spot-check exact attribute preservation.
	a, b := tab.Routes()[0], back.Routes()[0]
	if a.Prefix != b.Prefix || a.OriginAS != b.OriginAS || a.Tier != b.Tier {
		t.Errorf("first route changed: %+v vs %+v", a, b)
	}
}

func TestReadTextFormats(t *testing.T) {
	in := `
# comment line

10.0.0.0/8 100 tier1
192.0.2.0/24
198.51.100.0/24 65000
`
	tab, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
	r, _ := tab.Lookup(netip.MustParseAddr("10.1.1.1"))
	if r.OriginAS != 100 || r.Tier != Tier1 {
		t.Errorf("full line: %+v", r)
	}
	r, _ = tab.Lookup(netip.MustParseAddr("192.0.2.1"))
	if r.OriginAS != 0 || r.Tier != TierUnknown {
		t.Errorf("prefix-only line: %+v", r)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad prefix": "not-a-prefix 1 tier1",
		"bad AS":     "10.0.0.0/8 xyz tier1",
		"bad tier":   "10.0.0.0/8 1 tier9",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestTierRoundtrip(t *testing.T) {
	for _, tier := range []Tier{TierUnknown, Tier1, Tier2, Tier3} {
		got, err := ParseTier(tier.String())
		if err != nil {
			t.Errorf("ParseTier(%q): %v", tier.String(), err)
		}
		if got != tier {
			t.Errorf("roundtrip %v -> %v", tier, got)
		}
	}
	if _, err := ParseTier("gibberish"); err == nil {
		t.Error("ParseTier accepted gibberish")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Routes: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Routes: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Routes() {
		if a.Routes()[i] != b.Routes()[i] {
			t.Fatalf("route %d differs: %+v vs %+v", i, a.Routes()[i], b.Routes()[i])
		}
	}
	c, err := Generate(GenConfig{Routes: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Routes() {
		if a.Routes()[i] != c.Routes()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateLengthMix(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := tab.PrefixLengthHistogram()
	// /24 must dominate (≈44% of the 2001 mix).
	frac24 := float64(h[24]) / float64(tab.Len())
	if frac24 < 0.35 || frac24 > 0.55 {
		t.Errorf("/24 fraction = %.3f, want ≈ 0.44", frac24)
	}
	// /16 is the secondary mode.
	if h[16] < h[15] || h[16] < h[17] {
		t.Errorf("/16 not a local mode: /15=%d /16=%d /17=%d", h[15], h[16], h[17])
	}
	// A thin but non-empty population of /8s.
	if h[8] == 0 {
		t.Error("no /8 routes generated")
	}
	if h[8] > tab.Len()/100 {
		t.Errorf("/8 routes = %d, expected a thin population", h[8])
	}
	// No prefixes outside 8..32.
	for l := 0; l < 8; l++ {
		if h[l] != 0 {
			t.Errorf("unexpected /%d routes: %d", l, h[l])
		}
	}
}

func TestGenerateTierASRanges(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 5000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var n1, n2, n3 int
	for _, r := range tab.Routes() {
		switch r.Tier {
		case Tier1:
			n1++
			if r.OriginAS < 100 || r.OriginAS > 199 {
				t.Fatalf("tier1 route with AS %d", r.OriginAS)
			}
		case Tier2:
			n2++
			if r.OriginAS < 1000 || r.OriginAS > 4999 {
				t.Fatalf("tier2 route with AS %d", r.OriginAS)
			}
		case Tier3:
			n3++
			if r.OriginAS < 10000 {
				t.Fatalf("tier3 route with AS %d", r.OriginAS)
			}
		default:
			t.Fatalf("generated route with unknown tier: %+v", r)
		}
	}
	// Roughly 15/35/50.
	tot := float64(n1 + n2 + n3)
	if f := float64(n1) / tot; f < 0.10 || f > 0.20 {
		t.Errorf("tier1 share = %.3f, want ≈ 0.15", f)
	}
	if f := float64(n3) / tot; f < 0.42 || f > 0.58 {
		t.Errorf("tier3 share = %.3f, want ≈ 0.50", f)
	}
}

func TestGenerateAvoidsReservedSpace(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Routes() {
		b := r.Prefix.Addr().As4()
		if b[0] == 0 || b[0] == 10 || b[0] == 127 || b[0] >= 224 {
			t.Fatalf("route in reserved space: %v", r.Prefix)
		}
		if b[0] == 192 && b[1] == 168 {
			t.Fatalf("route in 192.168/16: %v", r.Prefix)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{Routes: 0}); err == nil {
		t.Error("Routes=0 accepted")
	}
}

func TestRandomAddrInPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		plen := 8 + r.Intn(25)
		var b [4]byte
		rng.Read(b[:])
		p, err := netip.AddrFrom4(b).Prefix(plen)
		if err != nil {
			return true
		}
		for i := 0; i < 16; i++ {
			if !p.Contains(RandomAddrInPrefix(rng, p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSortedPrefixes(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ps := tab.SortedPrefixes()
	if len(ps) != tab.Len() {
		t.Fatalf("len = %d, want %d", len(ps), tab.Len())
	}
	for i := 1; i < len(ps); i++ {
		c := ps[i-1].Addr().Compare(ps[i].Addr())
		if c > 0 || (c == 0 && ps[i-1].Bits() > ps[i].Bits()) {
			t.Fatalf("not sorted at %d: %v then %v", i, ps[i-1], ps[i])
		}
	}
}

// trieNode is the one-bit-per-level binary trie that was the product's
// longest-prefix match before the flat index replaced it. It stays here
// as the oracle the index is compared against: obviously correct, one
// pointer hop per address bit.
type trieNode struct {
	child [2]*trieNode
	route int // index+1 into routes; 0 = no route here
}

func (n *trieNode) insert(bits uint32, plen int, idx int) {
	cur := n
	for i := 0; i < plen; i++ {
		b := bits >> (31 - i) & 1
		if cur.child[b] == nil {
			cur.child[b] = &trieNode{}
		}
		cur = cur.child[b]
	}
	cur.route = idx + 1
}

func (n *trieNode) lookup(bits uint32) (int, bool) {
	best := 0
	cur := n
	for i := 0; i < 32 && cur != nil; i++ {
		if cur.route != 0 {
			best = cur.route
		}
		cur = cur.child[bits>>(31-i)&1]
	}
	if cur != nil && cur.route != 0 {
		best = cur.route
	}
	if best == 0 {
		return 0, false
	}
	return best - 1, true
}

// lpmDiff feeds one insertion sequence to a Table and to the trie
// oracle and compares them probe by probe.
type lpmDiff struct {
	tab    *Table
	trie   trieNode
	routes []Route
	idx    map[netip.Prefix]int
}

func newLPMDiff() *lpmDiff {
	return &lpmDiff{tab: NewTable(), idx: make(map[netip.Prefix]int)}
}

func (d *lpmDiff) insert(t testing.TB, r Route) {
	t.Helper()
	if err := d.tab.Insert(r); err != nil {
		t.Fatalf("Insert(%v): %v", r.Prefix, err)
	}
	r.Prefix = r.Prefix.Masked()
	i, ok := d.idx[r.Prefix]
	if !ok {
		i = len(d.routes)
		d.idx[r.Prefix] = i
		d.routes = append(d.routes, Route{})
	}
	d.routes[i] = r
	d.trie.insert(v4bits(r.Prefix.Addr()), r.Prefix.Bits(), i)
}

// check compares Lookup and LookupPrefix with the oracle at one address.
func (d *lpmDiff) check(t testing.TB, bits uint32) {
	t.Helper()
	addr := addrFromV4bits(bits)
	got, gotOK := d.tab.Lookup(addr)
	pfx, pfxOK := d.tab.LookupPrefix(addr)
	var want Route
	i, wantOK := d.trie.lookup(bits)
	if wantOK {
		want = d.routes[i]
	}
	if gotOK != wantOK || got != want {
		t.Fatalf("Lookup(%v) = %+v ok=%v, trie says %+v ok=%v", addr, got, gotOK, want, wantOK)
	}
	if pfxOK != wantOK || pfx != want.Prefix {
		t.Fatalf("LookupPrefix(%v) = %v ok=%v, trie says %v ok=%v", addr, pfx, pfxOK, want.Prefix, wantOK)
	}
}

// edgeProbes returns the addresses where p can change an answer: its
// first and last address and the ones just outside.
func edgeProbes(p netip.Prefix) [4]uint32 {
	first := v4bits(p.Masked().Addr())
	last := first | uint32(uint64(1)<<(32-p.Bits())-1)
	return [4]uint32{first, last, first - 1, last + 1}
}

// checkBatch resolves addrs with one LookupKeys call and requires every
// answer to be LookupKey's for that address — which check has just
// compared with the oracle.
func (d *lpmDiff) checkBatch(t testing.TB, addrs []netip.Addr) {
	t.Helper()
	// Stale answers in the outputs must not survive the call.
	prefixes := make([]netip.Prefix, len(addrs))
	keys := make([]uint32, len(addrs))
	for i := range addrs {
		prefixes[i], keys[i] = netip.MustParsePrefix("203.0.113.0/24"), 1<<30
	}
	d.tab.LookupKeys(addrs, prefixes, keys)
	for i, a := range addrs {
		p, key, ok := d.tab.LookupKey(a)
		if prefixes[i] != p || keys[i] != key || ok != (keys[i] != 0) {
			t.Fatalf("LookupKeys of %d addresses, [%d] %v = %v key %d, LookupKey says %v key %d ok=%v",
				len(addrs), i, a, prefixes[i], keys[i], p, key, ok)
		}
	}
}

// diffSequence inserts prefixes in order, checking every edge of every
// prefix of the sequence — inserted yet or not — after each insert, so
// Lookup is exercised on every intermediate state of the structure.
// After each insert the same probes, repeated until they make more than
// two chunks, are also resolved in single LookupKeys calls of every
// length around the chunk width.
func diffSequence(t testing.TB, prefixes []netip.Prefix, extra []uint32) {
	t.Helper()
	d := newLPMDiff()
	probes := append([]uint32(nil), extra...)
	for _, p := range prefixes {
		e := edgeProbes(p)
		probes = append(probes, e[:]...)
	}
	var batch []netip.Addr
	for len(probes) > 0 && len(batch) <= 2*lookupChunk {
		for _, b := range probes {
			batch = append(batch, addrFromV4bits(b))
		}
	}
	for i, p := range prefixes {
		d.insert(t, Route{Prefix: p, OriginAS: uint32(i + 1), Tier: Tier(i % 4)})
		for _, b := range probes {
			d.check(t, b)
		}
		for _, n := range []int{0, 1, lookupChunk - 1, lookupChunk, lookupChunk + 1, len(batch)} {
			d.checkBatch(t, batch[:min(n, len(batch))])
		}
	}
}

// TestLookupMatchesTrie compares the flat index with the binary-trie
// oracle on the shapes Generate never draws: a default route, short
// prefixes arriving after the long ones they cover (the push-down
// path), deep nesting inside one /16, host routes at the corners of the
// address space, and a route replaced in place — each in both insertion
// orders.
func TestLookupMatchesTrie(t *testing.T) {
	cases := map[string][]string{
		"default route": {"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "128.0.0.0/1"},
		"short after long": {
			"10.1.2.0/24", "10.1.2.128/25", "10.1.2.192/26", "10.1.2.224/27", "10.1.2.240/28",
			"10.1.2.248/29", "10.1.2.252/30", "10.1.2.254/31", "10.1.2.255/32", "10.200.7.0/24",
			"10.0.0.0/15", "10.0.0.0/14", "10.0.0.0/13", "10.0.0.0/12", "10.0.0.0/11",
			"10.0.0.0/10", "10.0.0.0/9", "10.0.0.0/8",
		},
		"three deep in one /16": {
			"172.16.0.0/16", "172.16.64.0/18", "172.16.64.0/22", "172.16.65.32/27", "172.16.65.40/32",
			"172.16.128.0/17", "172.16.255.0/24", "172.16.0.0/17", "172.16.66.0/23",
		},
		"host routes": {
			"0.0.0.0/32", "255.255.255.255/32", "10.1.0.0/32", "10.1.255.255/32", "10.1.128.0/32",
			"10.1.127.255/32", "10.1.0.0/16", "10.1.128.0/17",
		},
		"replaced in place": {"10.1.0.0/16", "10.1.2.0/24", "10.1.0.0/16", "10.1.2.0/24", "10.0.0.0/8", "10.0.0.0/8"},
	}
	for name, list := range cases {
		prefixes := make([]netip.Prefix, len(list))
		for i, s := range list {
			prefixes[i] = netip.MustParsePrefix(s)
		}
		t.Run(name, func(t *testing.T) { diffSequence(t, prefixes, nil) })
		t.Run(name+"/reversed", func(t *testing.T) {
			rev := make([]netip.Prefix, len(prefixes))
			for i, p := range prefixes {
				rev[len(rev)-1-i] = p
			}
			diffSequence(t, rev, nil)
		})
	}
}

// TestLookupMatchesTrieSeeded does the same on random tables crowded
// into four /16s and their covering short prefixes, any length from /0
// to /32, so nesting, push-down, slot growth and slot reuse all happen
// many times per table.
func TestLookupMatchesTrieSeeded(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tops := [4]uint32{rng.Uint32() >> 16, rng.Uint32() >> 16, rng.Uint32() >> 16, rng.Uint32() >> 16}
		prefixes := make([]netip.Prefix, 300)
		for i := range prefixes {
			bits := tops[rng.Intn(len(tops))]<<16 | rng.Uint32()>>16
			prefixes[i] = netip.PrefixFrom(addrFromV4bits(bits), rng.Intn(33)).Masked()
		}
		random := make([]uint32, 64)
		for i := range random {
			random[i] = rng.Uint32()
		}
		diffSequence(t, prefixes, random)
	}
}

// TestLookupZeroAllocs pins both lookups at zero allocations.
func TestLookupZeroAllocs(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 2000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	hit := RandomAddrInPrefix(rng, tab.Routes()[7].Prefix)
	miss := netip.MustParseAddr("10.1.2.3") // Generate leaves 10/8 empty
	if n := testing.AllocsPerRun(100, func() { tab.Lookup(hit); tab.Lookup(miss) }); n != 0 {
		t.Errorf("Lookup allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { tab.LookupPrefix(hit); tab.LookupPrefix(miss) }); n != 0 {
		t.Errorf("LookupPrefix allocates %v times per run", n)
	}
}

// TestLookupSharedTable is the daemon's -readers shape: several
// goroutines look up one table nobody writes any more. Lookup must not
// write either — `go test -race` is what checks it.
func TestLookupSharedTable(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 5000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	routes := tab.Routes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				want := routes[rng.Intn(len(routes))].Prefix
				addr := RandomAddrInPrefix(rng, want)
				r, ok := tab.Lookup(addr)
				p, pok := tab.LookupPrefix(addr)
				// A longer route may cover addr; it still lies inside want.
				if !ok || !pok || r.Prefix != p || p.Bits() < want.Bits() || !want.Contains(p.Addr()) {
					t.Errorf("Lookup(%v) = %v ok=%v, LookupPrefix = %v ok=%v, drawn from %v", addr, r.Prefix, ok, p, pok, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestLPMFootprint bounds the index for the benchmark's 60 000-route
// table. A second level of full 256-entry nodes (≈50 MB here) makes
// lookups faster still and set-up several times slower; this keeps that
// trade from coming back unnoticed.
func TestLPMFootprint(t *testing.T) {
	tab, err := Generate(GenConfig{Routes: 60000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := &tab.v4
	size := unsafe.Sizeof(l.root) + uintptr(cap(l.arena))*unsafe.Sizeof(span{})
	if limit := uintptr(8 << 20); size > limit {
		t.Errorf("LPM index holds %d bytes for 60000 routes, limit %d", size, limit)
	}
	t.Logf("LPM index: %d KiB (root %d KiB, arena %d of %d spans)",
		size>>10, unsafe.Sizeof(l.root)>>10, len(l.arena), cap(l.arena))
}

// PrefixLengthHistogram returns a 33-element histogram of IPv4 prefix
// lengths (index = prefix bits).
func (t *Table) PrefixLengthHistogram() [33]int {
	var h [33]int
	for _, r := range t.routes {
		if r.Prefix.Addr().Is4() {
			h[r.Prefix.Bits()]++
		}
	}
	return h
}

// SortedPrefixes returns the table's prefixes sorted by address then
// length; useful for deterministic iteration in tests and reports.
func (t *Table) SortedPrefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(t.routes))
	for _, r := range t.routes {
		out = append(out, r.Prefix)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}
