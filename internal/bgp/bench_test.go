package bgp

import (
	"math/rand"
	"net/netip"
	"testing"
)

func benchTable(b *testing.B, routes int) *Table {
	b.Helper()
	t, err := Generate(GenConfig{Routes: routes, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// benchLookups times Lookup over probes. One op is one pass over all of
// them, after an untimed pass that fills the caches, so a -benchtime 1x
// run (CI's) reads the same as a long one; ns/lookup is the figure to
// read. wantHit fails the benchmark on a miss.
func benchLookups(b *testing.B, t *Table, probes []netip.Addr, wantHit bool) {
	pass := func() {
		for _, a := range probes {
			if _, ok := t.Lookup(a); wantHit && !ok {
				b.Fatal("miss on guaranteed hit")
			}
		}
	}
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/lookup")
}

func BenchmarkLookupHit120k(b *testing.B) {
	t := benchTable(b, 120000)
	rng := rand.New(rand.NewSource(2))
	routes := t.Routes()
	probes := make([]netip.Addr, 4096)
	for i := range probes {
		probes[i] = RandomAddrInPrefix(rng, routes[rng.Intn(len(routes))].Prefix)
	}
	benchLookups(b, t, probes, true)
}

func BenchmarkLookupRandom120k(b *testing.B) {
	t := benchTable(b, 120000)
	rng := rand.New(rand.NewSource(3))
	probes := make([]netip.Addr, 4096)
	for i := range probes {
		var a [4]byte
		rng.Read(a[:])
		probes[i] = netip.AddrFrom4(a)
	}
	benchLookups(b, t, probes, false)
}

func BenchmarkInsert(b *testing.B) {
	routes := benchTable(b, 50000).Routes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := NewTable()
		for _, r := range routes {
			if err := t.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(routes)), "routes/op")
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(GenConfig{Routes: 60000, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
