package analysis

import (
	"net/netip"

	"repro/internal/agg"
	"repro/internal/core"
)

// PrefixLengthStats reproduces the Section III observation about the
// (lack of) correlation between prefix size and elephant behaviour.
type PrefixLengthStats struct {
	// ElephantLengths is a 33-bin histogram of the prefix lengths of
	// flows that were elephants in at least one interval.
	ElephantLengths [33]int
	// ActiveLengths is the same histogram over all flows that carried
	// traffic.
	ActiveLengths [33]int
	// MinLen and MaxLen bound the elephant prefix lengths (0,0 when no
	// elephants).
	MinLen, MaxLen int
	// ActiveSlash8 and ElephantSlash8 count /8 networks that were
	// active and that ever became elephants, respectively.
	ActiveSlash8, ElephantSlash8 int
}

// PrefixLengths computes PrefixLengthStats from a result sequence and
// the series that produced it.
func PrefixLengths(results []core.Result, series *agg.Series) PrefixLengthStats {
	var st PrefixLengthStats
	elephants := make(map[netip.Prefix]bool)
	for i := range results {
		for _, p := range results[i].Elephants.Flows() {
			elephants[p] = true
		}
	}
	for _, p := range series.Flows() {
		if !p.Addr().Is4() {
			continue
		}
		bits := p.Bits()
		st.ActiveLengths[bits]++
		if bits == 8 {
			st.ActiveSlash8++
		}
	}
	first := true
	// order-free: counts, a minimum and a maximum.
	for p := range elephants {
		if !p.Addr().Is4() {
			continue
		}
		bits := p.Bits()
		st.ElephantLengths[bits]++
		if bits == 8 {
			st.ElephantSlash8++
		}
		if first || bits < st.MinLen {
			st.MinLen = bits
		}
		if first || bits > st.MaxLen {
			st.MaxLen = bits
		}
		first = false
	}
	return st
}

// TotalElephantFlows returns the number of distinct flows ever
// classified as elephants.
func (s PrefixLengthStats) TotalElephantFlows() int {
	n := 0
	for _, c := range s.ElephantLengths {
		n += c
	}
	return n
}
