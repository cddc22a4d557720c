package bgp

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"strings"
	"testing"
)

// FuzzReadText drives the table parser with arbitrary text: no panics,
// and accepted tables must survive a write/read roundtrip.
func FuzzReadText(f *testing.F) {
	f.Add("10.0.0.0/8 100 tier1\n192.0.2.0/24 65000 tier3\n")
	f.Add("# comment\n\n198.51.100.0/24\n")
	f.Add("garbage\n")
	f.Add("10.0.0.0/8 -1 tier1\n")

	f.Fuzz(func(t *testing.T, text string) {
		tab, err := ReadText(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tab.WriteText(&buf); err != nil {
			t.Fatalf("write of accepted table failed: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-read of written table failed: %v", err)
		}
		if back.Len() != tab.Len() {
			t.Fatalf("roundtrip length %d != %d", back.Len(), tab.Len())
		}
	})
}

// FuzzLookupEquivalence builds a table from the input — five bytes a
// route: address, then length mod 33 — and compares the flat index with
// the binary-trie oracle after every insert, at every prefix edge and at
// one probe taken from the input's first four bytes — address by address
// and, through diffSequence, in batched LookupKeys calls.
func FuzzLookupEquivalence(f *testing.F) {
	f.Add([]byte{10, 1, 2, 3})
	f.Add([]byte{10, 1, 2, 0, 24, 10, 0, 0, 0, 8, 10, 1, 2, 128, 25})
	f.Add([]byte{0, 0, 0, 0, 0, 10, 1, 2, 3, 32, 10, 1, 0, 0, 17, 10, 1, 2, 3, 32})
	f.Add([]byte{192, 0, 2, 255, 32, 192, 0, 2, 0, 23, 192, 0, 0, 0, 9, 192, 0, 2, 254, 31})
	// One batch whose probes split three ways at every level: several in
	// the bucketed 10.1/16 (three long routes under a /16), several in
	// 10.2/16 and 10.3/16 answered by the root entry (routes of /16 and
	// /15, no bucket), and several in /16s no route covers.
	f.Add([]byte{
		10, 1, 0, 0, 16, 10, 1, 2, 0, 24, 10, 1, 2, 128, 25, 10, 1, 200, 7, 32,
		10, 2, 0, 0, 15, 10, 3, 0, 0, 16, 172, 16, 0, 0, 16, 11, 0, 0, 0, 16,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 5*64 {
			return
		}
		probe := binary.BigEndian.Uint32(data)
		var prefixes []netip.Prefix
		for ; len(data) >= 5; data = data[5:] {
			addr := addrFromV4bits(binary.BigEndian.Uint32(data))
			prefixes = append(prefixes, netip.PrefixFrom(addr, int(data[4])%33))
		}
		diffSequence(t, prefixes, []uint32{probe})
	})
}
