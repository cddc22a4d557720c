package bgp

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// generateSeen is Generate as it was before it answered the duplicate
// test from the table's own index: a private seen map beside byPfx, an
// unsized table, every route through Insert. It is the oracle for the
// RNG draw order — a draw moved across the duplicate test would change
// every later route — and reports how many duplicates it re-drew, so
// the test knows the branch was taken.
func generateSeen(routes int, seed int64) (t *Table, redrawn int, err error) {
	tw := [3]float64{0.15, 0.35, 0.50}
	rng := rand.New(rand.NewSource(seed))

	var lengths []int
	var cum []float64
	total := 0.0
	for _, l := range lengthMix2001 {
		lengths = append(lengths, l.bits)
		total += l.weight
		cum = append(cum, total)
	}
	sampleLen := func() int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x <= c {
				return lengths[i]
			}
		}
		return lengths[len(lengths)-1]
	}

	t = NewTable()
	seen := make(map[netip.Prefix]bool, routes)
	tierTotal := tw[0] + tw[1] + tw[2]
	for t.Len() < routes {
		plen := sampleLen()
		var addr netip.Addr
		for {
			raw := uint32(rng.Int63()) & 0xFFFFFFFF
			first := raw >> 24
			if first == 0 || first == 10 || first == 127 || first >= 224 {
				continue
			}
			if first == 192 && (raw>>16)&0xFF == 168 {
				continue
			}
			addr = addrFromV4bits(raw)
			break
		}
		p, err := addr.Prefix(plen)
		if err != nil {
			continue
		}
		if seen[p] {
			redrawn++
			continue
		}
		seen[p] = true

		x := rng.Float64() * tierTotal
		var tier Tier
		var as uint32
		switch {
		case x < tw[0]:
			tier = Tier1
			as = 100 + uint32(rng.Intn(100))
		case x < tw[0]+tw[1]:
			tier = Tier2
			as = 1000 + uint32(rng.Intn(4000))
		default:
			tier = Tier3
			as = 10000 + uint32(rng.Intn(50000))
		}
		if err := t.Insert(Route{Prefix: p, OriginAS: as, Tier: tier}); err != nil {
			return nil, 0, err
		}
	}
	return t, redrawn, nil
}

// TestGenerateMatchesSeenMapOracle pins Generate's output across the
// change of its duplicate test: same routes in the same order, and a
// table that answers lookups the same way (the presized, add-built
// table against the Insert-built one). 20 000 routes draw enough short
// prefixes for the duplicate branch to be taken on every seed.
func TestGenerateMatchesSeenMapOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		got, err := Generate(GenConfig{Routes: 20000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, redrawn, err := generateSeen(20000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if redrawn == 0 {
			t.Fatalf("seed %d: no duplicate drawn, the changed branch is not exercised", seed)
		}
		if !slices.Equal(got.Routes(), want.Routes()) {
			t.Fatalf("seed %d: Routes() diverges from the seen-map generator", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			addr := addrFromV4bits(uint32(rng.Int63()))
			gp, gk, gok := got.LookupKey(addr)
			wp, wk, wok := want.LookupKey(addr)
			if gp != wp || gk != wk || gok != wok {
				t.Fatalf("seed %d: LookupKey(%v) = %v,%d,%v; oracle %v,%d,%v", seed, addr, gp, gk, gok, wp, wk, wok)
			}
		}
	}
}
