package engine_test

// The paper's rule as generated properties (ARCHITECTURE.md,
// Reproduction): flow j is an elephant iff Σ_W (x_j − θ̂) > 0, θ̂ the
// EWMA of a detector's θ. Each relation below transforms a generated
// link or its schemes, runs both sides through RunMatrix and holds the
// results to what the rule implies, on every registered detector ×
// classifier example. That the engine's paths agree with each other is
// FuzzEquivalence's job; this one only uses RunMatrix.

import (
	"math"
	"net/netip"
	"slices"
	"strconv"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/scheme"
)

// relations are the properties FuzzMetamorphic checks, picked by
// relation % len(relations); p = relation / len(relations) parametrises
// the one picked.
var relations = []func(m *meta, p int){
	(*meta).scale,
	(*meta).relabel,
	(*meta).nullFlows,
	(*meta).windowOne,
	(*meta).betaMonotone,
	(*meta).ewma,
}

// FuzzMetamorphic checks one relation of the paper's rule on the link
// Generate(seed, shape) builds. Its seed corpus is every relation, at
// two parameters, on every case of FuzzEquivalence's corpus.
func FuzzMetamorphic(f *testing.F) {
	for k, c := range corpus(f) {
		for rel := range relations {
			f.Add(c.seed, uint8(rel+len(relations)*(k%4)), c.shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, relation uint8, shape []byte) {
		c := enginetest.Generate(seed, shape)
		s, _ := c.Reference()
		if s == nil {
			t.Fatal("the case closes no interval")
		}
		m := &meta{t: t, s: s, specs: c.Specs}
		relations[int(relation)%len(relations)](m, int(relation)/len(relations))
	})
}

// meta is one generated link and its schemes.
type meta struct {
	t     *testing.T
	s     *agg.Series
	specs []*scheme.Spec
}

// run classifies each series under every spec through RunMatrix and
// returns out[l][i], series l under spec i. No cell may fail: a
// generated link's interval 0 carries flows.
func (m *meta) run(specs []*scheme.Spec, series ...*agg.Series) [][][]core.Result {
	m.t.Helper()
	links := make([]engine.MatrixLink, len(series))
	for l, s := range series {
		links[l] = engine.MatrixLink{ID: strconv.Itoa(l), Series: s}
	}
	res, err := (&engine.MultiLinkEngine{Workers: 2}).RunMatrix(links, specs)
	if err != nil {
		m.t.Fatal(err)
	}
	byID := map[string]engine.LinkResult{}
	for _, lr := range res {
		byID[lr.ID] = lr
	}
	out := make([][][]core.Result, len(series))
	for l, link := range links {
		for _, sp := range specs {
			lr := byID[engine.MatrixID(link.ID, sp)]
			if lr.Err != nil || len(lr.Results) != m.s.Intervals {
				m.t.Fatalf("%s: %d results, %v", lr.ID, len(lr.Results), lr.Err)
			}
			out[l] = append(out[l], lr.Results)
		}
	}
	return out
}

// rebuild returns a copy of the series with the flows relabel names
// renamed and every bandwidth times f.
func (m *meta) rebuild(relabel map[netip.Prefix]netip.Prefix, f float64) *agg.Series {
	out := agg.NewSeries(m.s.Start, m.s.Interval, m.s.Intervals)
	for _, p := range m.s.Flows() {
		row, _ := m.s.Row(p)
		q, ok := relabel[p]
		if !ok {
			q = p
		}
		dst := out.RowIndex(q)
		for t, bw := range row {
			if bw > 0 {
				out.SetRowBandwidth(dst, t, bw*f)
			}
		}
	}
	return out
}

// scale (i): every bandwidth — and a fixed detector's theta — times
// 2^k, k = ±(1 + p%3), scales θ(t), θ̂(t) and both loads by 2^k bit for
// bit and changes no verdict.
func (m *meta) scale(p int) {
	k := 1 + p%3
	if p/3%2 == 1 {
		k = -k
	}
	f := math.Ldexp(1, k)
	scaled := make([]*scheme.Spec, len(m.specs))
	for i, sp := range m.specs {
		scaled[i] = sp
		if sp.Detector.Params.Has("theta") {
			theta, _ := sp.Detector.Params.Float("theta", 0)
			scaled[i] = sp.WithDetectorParam("theta", strconv.FormatFloat(theta*f, 'g', -1, 64))
		}
	}
	want := m.run(m.specs, m.s)[0]
	got := m.run(scaled, m.rebuild(nil, f))[0]
	for i, sp := range m.specs {
		for t, w := range want[i] {
			w.RawThreshold, w.Threshold = w.RawThreshold*f, w.Threshold*f
			w.TotalLoad, w.ElephantLoad = w.TotalLoad*f, w.ElephantLoad*f
			if g := got[i][t]; !g.Elephants.Equal(w.Elephants) || g.RawThreshold != w.RawThreshold || g.Threshold != w.Threshold ||
				g.TotalLoad != w.TotalLoad || g.ElephantLoad != w.ElephantLoad || g.ActiveFlows != w.ActiveFlows {
				m.t.Fatalf("%s ×2^%d, interval %d: θ %v θ̂ %v %d elephants, want θ %v θ̂ %v %d", sp, k, t,
					g.RawThreshold, g.Threshold, g.ElephantCount(), w.RawThreshold, w.Threshold, w.ElephantCount())
			}
		}
	}
}

// relabel (ii): renaming the flows by a bijection maps every verdict
// through it and leaves θ(t) and θ̂(t) bit for bit. With p even the
// bijection reverses prefix order. Top-K then breaks a tie of
// bandwidths the other way, so its intervals with a tie are skipped;
// aest's block aggregation and the sketches read the flows in prefix
// order, so they run only under the order-keeping bijection (p odd);
// the loads, summed in prefix order, agree to rounding.
func (m *meta) relabel(p int) {
	keep := p%2 == 1
	flows := slices.Clone(m.s.Flows())
	slices.SortFunc(flows, core.ComparePrefix)
	to := make(map[netip.Prefix]netip.Prefix, len(flows))
	for i, q := range flows {
		j := i
		if !keep {
			j = len(flows) - 1 - i
		}
		to[q] = netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(j >> 8), byte(j), 0}), 24)
	}
	var specs []*scheme.Spec
	for _, sp := range m.specs {
		if keep || (sp.Detector.Name != "aest" && sp.Classifier.Name != "misragries" && sp.Classifier.Name != "spacesaving") {
			specs = append(specs, sp)
		}
	}
	want := m.run(specs, m.s)[0]
	got := m.run(specs, m.rebuild(to, 1))[0]
	near := func(a, b float64) bool { return a == b || (!keep && math.Abs(a-b) <= 1e-12*math.Abs(a)) }
	for i, sp := range specs {
		for t, w := range want[i] {
			g := got[i][t]
			if sp.Classifier.Name == "topk" && !keep && tied(m.s.IntervalBandwidths(t)) {
				continue
			}
			mapped := make([]netip.Prefix, 0, w.ElephantCount())
			for _, q := range w.Elephants.Flows() {
				mapped = append(mapped, to[q])
			}
			slices.SortFunc(mapped, core.ComparePrefix)
			if !slices.Equal(g.Elephants.Flows(), mapped) || g.RawThreshold != w.RawThreshold || g.Threshold != w.Threshold ||
				!near(g.TotalLoad, w.TotalLoad) || !near(g.ElephantLoad, w.ElephantLoad) {
				m.t.Fatalf("%s relabelled (order kept %v), interval %d: %v θ %v θ̂ %v, want %v θ %v θ̂ %v", sp, keep, t,
					g.Elephants.Flows(), g.RawThreshold, g.Threshold, mapped, w.RawThreshold, w.Threshold)
			}
		}
	}
}

// tied reports whether two flows of a bandwidth column are equal.
func tied(bw []float64) bool {
	sorted := slices.Clone(bw)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

// nullFlows (iv): 1 + p%4 flows without a bit in any interval, between
// the link's own in prefix order, change no result.
func (m *meta) nullFlows(p int) {
	s := m.rebuild(nil, 1)
	for j := 0; j <= p%4; j++ {
		s.RowIndex(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(37 * j), byte(11 * j), 7}), 32))
	}
	out := m.run(m.specs, m.s, s)
	for i, sp := range m.specs {
		if !slices.EqualFunc(out[0][i], out[1][i], sameResult) {
			m.t.Fatalf("%s: %d null flows changed the results", sp, 1+p%4)
		}
	}
}

// windowOne (v): at W = 1 the latent-heat test is the single-feature
// test, for every detector. The window keeps Σ_W x as a running sum,
// S += x − old, so a flow active in two consecutive intervals may hold
// an S a rounding away from its x; the verdicts may differ on such a
// flow, and only where θ̂ lies between S and x. The running sum is
// recomputed here as the window keeps it.
func (m *meta) windowOne(int) {
	var specs []*scheme.Spec
	for _, det := range scheme.DetectorExamples() {
		for _, cls := range []string{"latent:window=1", "single"} {
			sp := scheme.MustParse(det + "+" + cls)
			sp.MinFlows = m.specs[0].MinFlows
			specs = append(specs, sp)
		}
	}
	sums := map[netip.Prefix][]float64{}
	for _, q := range m.s.Flows() {
		row, _ := m.s.Row(q)
		sum := make([]float64, len(row))
		for t, x := range row {
			sum[t] = x
			if t > 0 && x > 0 && row[t-1] > 0 {
				sum[t] = sum[t-1] + (x - row[t-1])
			}
		}
		sums[q] = sum
	}
	out := m.run(specs, m.s)[0]
	for i := 0; i < len(specs); i += 2 {
		for t, lat := range out[i] {
			single := out[i+1][t]
			if lat.RawThreshold != single.RawThreshold || lat.Threshold != single.Threshold {
				m.t.Fatalf("%s and %s, interval %d: θ̂ %v and %v", specs[i], specs[i+1], t, lat.Threshold, single.Threshold)
			}
			for _, q := range append(slices.Clone(lat.Elephants.Flows()), single.Elephants.Flows()...) {
				if lat.Elephants.Contains(q) == single.Elephants.Contains(q) {
					continue
				}
				if x, sum, thr := m.s.Bandwidth(q, t), sums[q][t], lat.Threshold; (sum > thr) == (x > thr) {
					m.t.Fatalf("interval %d: %v (x %v, θ̂ %v) is an elephant of only one of %s and %s", t, q, x, thr, specs[i], specs[i+1])
				}
			}
		}
	}
}

// betaMonotone (vi): under the load detector every interval's elephant
// set at β = 0.6 is a subset of the set at β = 0.8, under the
// single-feature and the latent-heat classifier.
func (m *meta) betaMonotone(int) {
	var specs []*scheme.Spec
	for _, cls := range []string{"single", "latent"} {
		for _, beta := range []string{"0.6", "0.8"} {
			sp := scheme.MustParse("load:beta=" + beta + "+" + cls)
			sp.MinFlows = m.specs[0].MinFlows
			specs = append(specs, sp)
		}
	}
	out := m.run(specs, m.s)[0]
	for i := 0; i < len(specs); i += 2 {
		for t, small := range out[i] {
			for _, q := range small.Elephants.Flows() {
				if !out[i+1][t].Elephants.Contains(q) {
					m.t.Fatalf("interval %d: %v is an elephant of %s, not of %s", t, q, specs[i], specs[i+1])
				}
			}
		}
	}
}

// ewma (vii): at α = 0.25, θ̂(0) = θ̂(1) = θ(0) and θ̂(t+1) = α·θ̂(t) +
// (1−α)·θ(t) for t ≥ 1, bit for bit. At the default α = ½ the two
// weights are equal, and an α on the wrong term would not show.
func (m *meta) ewma(int) {
	const alpha = 0.25
	specs := make([]*scheme.Spec, len(m.specs))
	for i, sp := range m.specs {
		cp := *sp
		cp.Alpha = alpha
		specs[i] = &cp
	}
	for i, res := range m.run(specs, m.s)[0] {
		want := res[0].RawThreshold
		for t, r := range res {
			if t >= 2 {
				want = float64(alpha*res[t-1].Threshold) + float64((1-alpha)*res[t-1].RawThreshold)
			}
			if r.Threshold != want {
				m.t.Fatalf("%s: θ̂(%d) = %v, want %v", specs[i], t, r.Threshold, want)
			}
		}
	}
}

// sameResult compares two results field by field, the elephant set by
// its flows.
func sameResult(a, b core.Result) bool {
	return a.Interval == b.Interval && a.RawThreshold == b.RawThreshold && a.Threshold == b.Threshold &&
		a.Elephants.Equal(b.Elephants) && a.ElephantLoad == b.ElephantLoad && a.TotalLoad == b.TotalLoad &&
		a.ActiveFlows == b.ActiveFlows
}
