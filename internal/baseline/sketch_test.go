package baseline

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/core"
)

// The textbook map-keyed sketches: the oracle SketchClassifier's
// columnar kernels are tested against (TestSketchClassifierMatchesMapSketches
// and the guarantee tests in baseline_test.go). Nothing outside the
// tests uses them.

// MisraGries is the classic deterministic frequent-items summary: with k
// counters it identifies every flow whose volume exceeds total/(k+1),
// undercounting each flow by at most total/(k+1). It consumes per-packet
// (or per-sample) byte counts, representing the streaming heavy-hitter
// approach common in open-source monitoring — memory-bounded, but
// volume-only: it has no notion of the persistence the paper's latent
// heat adds.
type MisraGries struct {
	k        int
	counters map[netip.Prefix]float64
	total    float64
}

// NewMisraGries returns a summary with k counters.
func NewMisraGries(k int) (*MisraGries, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: misra-gries with k=%d", k)
	}
	return &MisraGries{k: k, counters: make(map[netip.Prefix]float64, k+1)}, nil
}

// Add accounts weight (e.g. a packet's bytes) to flow p.
func (m *MisraGries) Add(p netip.Prefix, weight float64) {
	if weight <= 0 {
		return
	}
	m.total += weight
	if _, ok := m.counters[p]; ok || len(m.counters) < m.k {
		m.counters[p] += weight
		return
	}
	// Decrement-all step: subtract the smallest amount that frees at
	// least one counter. The textbook formulation decrements by the new
	// item's weight; decrementing by min(weight, smallest counter)
	// preserves the error bound while keeping counters non-negative for
	// weighted updates.
	dec := weight
	for _, c := range m.counters {
		if c < dec {
			dec = c
		}
	}
	for q, c := range m.counters {
		if c-dec <= 0 {
			delete(m.counters, q)
		} else {
			m.counters[q] = c - dec
		}
	}
	if rest := weight - dec; rest > 0 && len(m.counters) < m.k {
		m.counters[p] = rest
	}
}

// Total returns the summed weight seen so far.
func (m *MisraGries) Total() float64 { return m.total }

// Estimate returns the (under)estimate of flow p's weight and whether p
// holds a counter. True weight is within [est, est + Total/(k+1)].
func (m *MisraGries) Estimate(p netip.Prefix) (float64, bool) {
	c, ok := m.counters[p]
	return c, ok
}

// HeavyHitters returns every tracked flow whose (under)estimate exceeds
// fraction*Total, sorted by descending estimate. Because counters
// undercount by up to Total/(k+1), the report is conservative: every
// returned flow truly carries more than fraction*Total (no false
// positives), but a true heavy hitter whose counter was decremented
// below the cut can be missed. A guaranteed-superset query must lower
// the cut by the error bound: fraction' = fraction - 1/(k+1).
func (m *MisraGries) HeavyHitters(fraction float64) []netip.Prefix {
	cut := fraction * m.total
	var out []flowBW
	for p, c := range m.counters {
		if c > cut {
			out = append(out, flowBW{p, c})
		}
	}
	sortFlows(out)
	ps := make([]netip.Prefix, len(out))
	for i, f := range out {
		ps[i] = f.p
	}
	return ps
}

// Reset clears the summary for the next measurement window.
func (m *MisraGries) Reset() {
	m.total = 0
	for p := range m.counters {
		delete(m.counters, p)
	}
}

// SpaceSaving is the Metwally–Agrawal–El Abbadi frequent-items sketch:
// k counters, each new flow evicts the minimum counter and inherits its
// count (an overestimate). Against Misra–Gries it trades under- for
// over-estimation but never misses a flow currently above Total/k.
type SpaceSaving struct {
	k        int
	counters map[netip.Prefix]*ssCounter
	total    float64
}

type ssCounter struct {
	count float64
	err   float64 // overestimation bound inherited at eviction
}

// NewSpaceSaving returns a sketch with k counters.
func NewSpaceSaving(k int) (*SpaceSaving, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: space-saving with k=%d", k)
	}
	return &SpaceSaving{k: k, counters: make(map[netip.Prefix]*ssCounter, k)}, nil
}

// Add accounts weight to flow p.
func (s *SpaceSaving) Add(p netip.Prefix, weight float64) {
	if weight <= 0 {
		return
	}
	s.total += weight
	if c, ok := s.counters[p]; ok {
		c.count += weight
		return
	}
	if len(s.counters) < s.k {
		s.counters[p] = &ssCounter{count: weight}
		return
	}
	// Evict the minimum counter; deterministic tie-break by prefix so
	// runs reproduce exactly.
	var minP netip.Prefix
	var minC *ssCounter
	for q, c := range s.counters {
		if minC == nil || c.count < minC.count || (c.count == minC.count && lessPrefix(q, minP)) {
			minP, minC = q, c
		}
	}
	delete(s.counters, minP)
	s.counters[p] = &ssCounter{count: minC.count + weight, err: minC.count}
}

// Total returns the summed weight seen so far.
func (s *SpaceSaving) Total() float64 { return s.total }

// Estimate returns the overestimate of p's weight, the error bound, and
// whether p is tracked. True weight lies in [count-err, count].
func (s *SpaceSaving) Estimate(p netip.Prefix) (count, err float64, ok bool) {
	c, found := s.counters[p]
	if !found {
		return 0, 0, false
	}
	return c.count, c.err, true
}

// HeavyHitters returns tracked flows whose guaranteed weight
// (count - err) exceeds fraction*Total, sorted by descending count.
func (s *SpaceSaving) HeavyHitters(fraction float64) []netip.Prefix {
	cut := fraction * s.total
	var out []flowBW
	for p, c := range s.counters {
		if c.count-c.err > cut {
			out = append(out, flowBW{p, c.count})
		}
	}
	sortFlows(out)
	ps := make([]netip.Prefix, len(out))
	for i, f := range out {
		ps[i] = f.p
	}
	return ps
}

// Reset clears the sketch for the next measurement window.
func (s *SpaceSaving) Reset() {
	s.total = 0
	for p := range s.counters {
		delete(s.counters, p)
	}
}

type flowBW struct {
	p  netip.Prefix
	bw float64
}

func lessPrefix(a, b netip.Prefix) bool {
	return core.ComparePrefix(a, b) < 0
}

func sortFlows(fs []flowBW) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].bw != fs[j].bw {
			return fs[i].bw > fs[j].bw
		}
		return lessPrefix(fs[i].p, fs[j].p)
	})
}
