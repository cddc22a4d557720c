package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
)

// GenConfig controls synthetic table generation.
type GenConfig struct {
	// Routes is the number of prefixes to generate.
	Routes int
	// Seed feeds the deterministic generator.
	Seed int64
}

// lengthMix2001 approximates the IPv4 prefix-length mix of a Tier-1 BGP
// table circa 2001: a strong mode at /24, substantial mass at /16 and
// /19–/23, a thin population of short prefixes including /8s, and a
// small tail of longer-than-/24 more-specifics. Entries are in ascending
// length order, the order Generate's sampler accumulates them in.
var lengthMix2001 = [...]struct {
	bits   int
	weight float64
}{
	{8, 0.002}, // ~the "100 /8 networks" of the paper
	{9, 0.001},
	{10, 0.002},
	{11, 0.003},
	{12, 0.005},
	{13, 0.008},
	{14, 0.015},
	{15, 0.018},
	{16, 0.090},
	{17, 0.025},
	{18, 0.040},
	{19, 0.065},
	{20, 0.055},
	{21, 0.050},
	{22, 0.055},
	{23, 0.060},
	{24, 0.440},
	{25, 0.015},
	{26, 0.020},
	{27, 0.010},
	{28, 0.008},
	{29, 0.006},
	{30, 0.005},
	{31, 0.001},
	{32, 0.001},
}

// Generate builds a deterministic synthetic table. Prefix lengths follow
// lengthMix2001; prefixes are drawn without collision (a longer
// duplicate is re-drawn); origin ASes are assigned per-tier from
// disjoint ranges so tests can recover the tier from the AS number.
func Generate(cfg GenConfig) (*Table, error) {
	if cfg.Routes <= 0 {
		return nil, fmt.Errorf("bgp: Generate: Routes must be positive, got %d", cfg.Routes)
	}
	// Relative shares of Tier1/Tier2/Tier3 origins.
	tw := [3]float64{0.15, 0.35, 0.50}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Build a cumulative sampler over lengths.
	cum := make([]float64, len(lengthMix2001))
	total := 0.0
	for i, l := range lengthMix2001 {
		total += l.weight
		cum[i] = total
	}
	sampleLen := func() int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x <= c {
				return lengthMix2001[i].bits
			}
		}
		return lengthMix2001[len(lengthMix2001)-1].bits
	}

	t := &Table{routes: make([]Route, 0, cfg.Routes), byPfx: make(map[netip.Prefix]int, cfg.Routes)}
	tierTotal := tw[0] + tw[1] + tw[2]
	for t.Len() < cfg.Routes {
		plen := sampleLen()
		// Draw a random address in unicast space (1.0.0.0–223.255.255.255,
		// skipping 10/8, 127/8 and 192.168/16 to look like public space).
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
		// p is masked IPv4 — the form the table stores — so the table's
		// own index answers the duplicate test and add needs no second probe.
		if _, dup := t.byPfx[p]; dup {
			continue
		}

		x := rng.Float64() * tierTotal
		var tier Tier
		var as uint32
		switch {
		case x < tw[0]:
			tier = Tier1
			as = 100 + uint32(rng.Intn(100)) // AS 100–199: tier-1
		case x < tw[0]+tw[1]:
			tier = Tier2
			as = 1000 + uint32(rng.Intn(4000)) // AS 1000–4999: tier-2
		default:
			tier = Tier3
			as = 10000 + uint32(rng.Intn(50000)) // AS 10000+: tier-3
		}
		if err := t.add(Route{Prefix: p, OriginAS: as, Tier: tier}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RandomAddrInPrefix draws a uniformly random host address inside p using
// rng. Only IPv4 prefixes are supported.
func RandomAddrInPrefix(rng *rand.Rand, p netip.Prefix) netip.Addr {
	base := v4bits(p.Addr())
	hostBits := 32 - p.Bits()
	var off uint32
	if hostBits > 0 {
		off = uint32(rng.Int63()) & (1<<uint(hostBits) - 1)
	}
	return addrFromV4bits(base | off)
}
