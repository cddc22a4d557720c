// Package bgp models the routing-table substrate of the reproduction: BGP
// network prefixes with attributes, a flat two-level index for IPv4
// longest-prefix match (lpm.go), a text table format, and a synthetic
// table generator calibrated to the prefix-length mix of a 2001 Tier-1
// table.
//
// The paper defines a "flow" as the traffic destined to one BGP routing
// table entry; every packet on the link is attributed to a prefix by
// longest-prefix match against this table.
package bgp

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strings"
)

// Tier classifies the origin AS of a route for the paper's "elephants
// belong to other Tier-1 ISPs" analysis.
type Tier uint8

// Tier values.
const (
	TierUnknown Tier = iota
	Tier1            // another backbone provider
	Tier2            // regional provider
	Tier3            // stub / enterprise
)

// String returns a short name for the tier.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case Tier3:
		return "tier3"
	}
	return "unknown"
}

// ParseTier converts a string produced by Tier.String back to a Tier.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tier1":
		return Tier1, nil
	case "tier2":
		return Tier2, nil
	case "tier3":
		return Tier3, nil
	case "unknown", "":
		return TierUnknown, nil
	}
	return TierUnknown, fmt.Errorf("bgp: unknown tier %q", s)
}

// Route is one routing table entry.
type Route struct {
	Prefix   netip.Prefix
	OriginAS uint32
	Tier     Tier
}

// Table is an immutable-after-build BGP routing table with longest-prefix
// match. The zero value is an empty table that matches nothing; build one
// with NewTable and Insert, and do not mutate it concurrently with lookups.
type Table struct {
	routes []Route
	byPfx  map[netip.Prefix]int // index into routes
	v4     lpm                  // last: see lpm.root
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byPfx: make(map[netip.Prefix]int)}
}

// Len reports the number of routes.
func (t *Table) Len() int { return len(t.routes) }

// Routes returns the table's routes in insertion order. The slice is
// shared; callers must not modify it.
func (t *Table) Routes() []Route { return t.routes }

// Insert adds or replaces a route. An IPv4-mapped IPv6 prefix
// (::ffff:a.b.c.d/96+n) is stored as the IPv4 prefix a.b.c.d/n it
// denotes, the form Lookup searches for mapped addresses. IPv4 routes
// go into the LPM index; IPv6 routes are found by probing the prefix
// map once per length (the paper's traces are IPv4).
func (t *Table) Insert(r Route) error {
	if !r.Prefix.IsValid() {
		return fmt.Errorf("bgp: invalid prefix %v", r.Prefix)
	}
	r.Prefix = r.Prefix.Masked()
	if a := r.Prefix.Addr(); a.Is4In6() && r.Prefix.Bits() >= 96 {
		r.Prefix = netip.PrefixFrom(a.Unmap(), r.Prefix.Bits()-96)
	}
	if i, ok := t.byPfx[r.Prefix]; ok {
		t.routes[i] = r // same index, so the LPM leaf already names it
		return nil
	}
	return t.add(r)
}

// add appends a route whose prefix is in stored form (masked, unmapped)
// and not yet in the table.
func (t *Table) add(r Route) error {
	idx := len(t.routes)
	if idx >= maxRoutes {
		return fmt.Errorf("bgp: table is full (%d routes)", maxRoutes)
	}
	t.byPfx[r.Prefix] = idx
	t.routes = append(t.routes, r)
	if r.Prefix.Addr().Is4() {
		t.v4.insert(v4bits(r.Prefix.Addr()), r.Prefix.Bits(), makeLeaf(idx, r.Prefix.Bits()))
	}
	return nil
}

// Lookup returns the longest-prefix-match route for addr, or ok=false when
// no route covers it.
func (t *Table) Lookup(addr netip.Addr) (Route, bool) {
	if addr.Is4() || addr.Is4In6() {
		leaf := t.v4.lookup(v4bits(addr))
		if leaf == 0 {
			return Route{}, false
		}
		return t.routes[leafIndex(leaf)], true
	}
	i, ok := t.lookup6(addr)
	if !ok {
		return Route{}, false
	}
	return t.routes[i], true
}

// LookupPrefix returns Lookup(addr).Prefix without touching the route.
func (t *Table) LookupPrefix(addr netip.Addr) (netip.Prefix, bool) {
	p, _, ok := t.LookupKey(addr)
	return p, ok
}

// LookupKey returns Lookup(addr).Prefix and the route's key: its index
// into Routes plus one, so 0 never names a route. For IPv4 neither
// touches the route: the leaf carries the index and the matched length,
// and the prefix is the address masked to it. It is what record
// attribution needs — a key is stable for the life of the table
// (replacing a route keeps its index), so a consumer may use it to
// remember what it derived from the prefix, provided it still compares
// the prefix: keys of two tables name unrelated routes.
func (t *Table) LookupKey(addr netip.Addr) (netip.Prefix, uint32, bool) {
	if addr.Is4() || addr.Is4In6() {
		bits := v4bits(addr)
		leaf := t.v4.lookup(bits)
		if leaf == 0 {
			return netip.Prefix{}, 0, false
		}
		plen := leafLen(leaf)
		bits &= ^uint32(0) << (32 - plen)
		return netip.PrefixFrom(addrFromV4bits(bits), plen), leaf & leafIdxMask, true
	}
	i, ok := t.lookup6(addr)
	if !ok {
		return netip.Prefix{}, 0, false
	}
	return t.routes[i].Prefix, uint32(i + 1), true
}

// LookupKeys is LookupKey for every address of addrs: prefixes[i] and
// keys[i] are what LookupKey(addrs[i]) returns, and keys[i] is 0 exactly
// when it reports no route. prefixes and keys must be at least as long as
// addrs. It is the form for a caller that holds a datagram's worth of
// addresses: the IPv4 ones are resolved a chunk at a time, one level of
// the index across the whole chunk before the next (lpm.lookupEach), so
// the cache misses of a level overlap; an IPv6 address is answered by
// LookupKey itself.
func (t *Table) LookupKeys(addrs []netip.Addr, prefixes []netip.Prefix, keys []uint32) {
	var bits, leaves [lookupChunk]uint32
	for len(addrs) > 0 {
		n := min(len(addrs), lookupChunk)
		for i, a := range addrs[:n] {
			bits[i] = 0
			if a.Is4() || a.Is4In6() {
				bits[i] = v4bits(a)
			}
		}
		t.v4.lookupEach(bits[:n], leaves[:n])
		for i, a := range addrs[:n] {
			switch leaf := leaves[i]; {
			case !a.Is4() && !a.Is4In6():
				prefixes[i], keys[i], _ = t.LookupKey(a)
			case leaf == 0:
				prefixes[i], keys[i] = netip.Prefix{}, 0
			default: // as LookupKey: the address masked to the leaf's length
				plen := leafLen(leaf)
				masked := bits[i] & (^uint32(0) << (32 - plen))
				prefixes[i], keys[i] = netip.PrefixFrom(addrFromV4bits(masked), plen), leaf&leafIdxMask
			}
		}
		addrs, prefixes, keys = addrs[n:], prefixes[n:], keys[n:]
	}
}

// lookup6 finds the longest IPv6 route covering addr by probing the
// prefix map at every length from /128 down.
func (t *Table) lookup6(addr netip.Addr) (int, bool) {
	for bits := 128; bits >= 0; bits-- {
		p, err := addr.Prefix(bits)
		if err != nil {
			return 0, false // the zero Addr
		}
		if i, ok := t.byPfx[p]; ok {
			return i, true
		}
	}
	return 0, false
}

func v4bits(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func addrFromV4bits(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// WriteText serializes the table in the package's text format:
// one "prefix originAS tier" triple per line, '#' comments allowed.
func (t *Table) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d routes\n", len(t.routes))
	for _, r := range t.routes {
		if _, err := fmt.Fprintf(bw, "%s %d %s\n", r.Prefix, r.OriginAS, r.Tier); err != nil {
			return fmt.Errorf("bgp: writing table: %w", err)
		}
	}
	return bw.Flush()
}

// ReadText parses a table in the text format written by WriteText.
func ReadText(r io.Reader) (*Table, error) {
	t := NewTable()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 1 {
			continue
		}
		p, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", line, err)
		}
		route := Route{Prefix: p}
		if len(fields) > 1 {
			var as uint32
			if _, err := fmt.Sscanf(fields[1], "%d", &as); err != nil {
				return nil, fmt.Errorf("bgp: line %d: bad origin AS %q", line, fields[1])
			}
			route.OriginAS = as
		}
		if len(fields) > 2 {
			tier, err := ParseTier(fields[2])
			if err != nil {
				return nil, fmt.Errorf("bgp: line %d: %w", line, err)
			}
			route.Tier = tier
		}
		if err := t.Insert(route); err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: reading table: %w", err)
	}
	return t, nil
}
