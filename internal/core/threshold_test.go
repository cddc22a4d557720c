package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// detect runs d on bws as Pipeline.Step does: the column beside its
// sorted view.
func detect(d Detector, bws []float64) (float64, error) {
	sorted := append([]float64(nil), bws...)
	sort.Float64s(sorted)
	return d.DetectThreshold(bws, sorted)
}

func TestConstantLoadValidation(t *testing.T) {
	for _, beta := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewConstantLoadDetector(beta); err == nil {
			t.Errorf("beta=%v accepted", beta)
		}
	}
	d, err := NewConstantLoadDetector(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "0.80-constant-load" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestConstantLoadEmptyAndZero(t *testing.T) {
	d, _ := NewConstantLoadDetector(0.8)
	if _, err := detect(d, nil); err == nil || !strings.Contains(err.Error(), "empty interval") {
		t.Errorf("empty interval: error %v", err)
	}
	if _, err := detect(d, []float64{0, 0}); err == nil || !strings.Contains(err.Error(), "zero total traffic") {
		t.Errorf("zero traffic: error %v", err)
	}
	// Under 1 bit/s in all is still traffic.
	if theta, err := detect(d, []float64{0.5, 0.25}); err != nil || theta != 0.25*0.999 {
		t.Errorf("0.5 + 0.25 bit/s: θ = %v, error %v; want just below 0.25, none", theta, err)
	}
}

// TestConstantLoadSemantics verifies the paper's definition: the flows
// strictly exceeding theta account for at least the target fraction of
// total traffic, and removing the smallest of them drops below it.
func TestConstantLoadSemantics(t *testing.T) {
	d, _ := NewConstantLoadDetector(0.8)
	bws := []float64{100, 50, 30, 10, 5, 3, 1, 1}
	theta, err := detect(d, bws)
	if err != nil {
		t.Fatal(err)
	}
	var total, above float64
	var aboveSet []float64
	for _, b := range bws {
		total += b
		if b > theta {
			above += b
			aboveSet = append(aboveSet, b)
		}
	}
	if above < 0.8*total {
		t.Errorf("flows above theta=%v carry %v < 80%% of %v", theta, above, total)
	}
	// Minimality: dropping the smallest elephant must fall below target.
	sort.Float64s(aboveSet)
	if len(aboveSet) > 0 && above-aboveSet[0] >= 0.8*total {
		t.Errorf("theta=%v not minimal: removing %v still meets target", theta, aboveSet[0])
	}
	// Exactly the target fraction suffices ({4} is half of 8), and a
	// target met by all but the smallest flow puts θ at that flow.
	half, _ := NewConstantLoadDetector(0.5)
	for _, tc := range []struct {
		bws  []float64
		want float64
	}{
		{[]float64{1, 1, 2, 4}, 2},
		{[]float64{1, 9}, 1},
	} {
		if theta, err := detect(half, tc.bws); err != nil || theta != tc.want {
			t.Errorf("β = 0.5 over %v: θ = %v (err %v), want %v", tc.bws, theta, err, tc.want)
		}
	}
}

func TestConstantLoadSingleFlow(t *testing.T) {
	d, _ := NewConstantLoadDetector(0.8)
	theta, err := detect(d, []float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if theta >= 42 {
		t.Errorf("theta = %v; the only flow must be classifiable as elephant", theta)
	}
}

func TestConstantLoadAllEqual(t *testing.T) {
	d, _ := NewConstantLoadDetector(0.5)
	bws := []float64{10, 10, 10, 10}
	theta, err := detect(d, bws)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows carry 50%; theta must be the third flow's bandwidth (10),
	// which leaves... nothing strictly above 10. Equal-bandwidth ties are
	// inherently unsplittable; accept theta <= 10.
	if theta > 10 {
		t.Errorf("theta = %v > max bandwidth", theta)
	}
}

// TestConstantLoadProperty: for random positive inputs, the elephants
// (strictly above theta) always carry >= beta of the traffic.
func TestConstantLoadProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 200; trial++ {
		beta := 0.1 + 0.8*rng.Float64()
		d, _ := NewConstantLoadDetector(beta)
		n := 1 + rng.Intn(200)
		bws := make([]float64, n)
		var total float64
		for i := range bws {
			bws[i] = math.Exp(rng.NormFloat64() * 2)
			total += bws[i]
		}
		theta, err := detect(d, bws)
		if err != nil {
			t.Fatal(err)
		}
		var above float64
		for _, b := range bws {
			if b > theta {
				above += b
			}
		}
		// Ties can make the strict-exceed set smaller; tolerate only the
		// tie mass at theta itself.
		var tieMass float64
		for _, b := range bws {
			if b == theta {
				tieMass += b
			}
		}
		if above+tieMass < beta*total-1e-9 {
			t.Fatalf("trial %d: beta=%v theta=%v above=%v total=%v", trial, beta, theta, above, total)
		}
	}
}

func TestAestDetectorName(t *testing.T) {
	if NewAestDetector().Name() != "aest" {
		t.Error("wrong name")
	}
}

func TestAestDetectorEmpty(t *testing.T) {
	if _, err := detect(NewAestDetector(), nil); err == nil {
		t.Error("empty interval accepted")
	}
}

// TestAestDetectorHeavyTail: on a clear body+tail mixture, the detector
// must place the threshold at the detected tail onset, above the body
// median — not at the fallback quantile.
func TestAestDetectorHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bws := make([]float64, 0, 8000)
	for i := 0; i < 7200; i++ {
		bws = append(bws, math.Exp(rng.NormFloat64()))
	}
	for i := 0; i < 800; i++ {
		u := rng.Float64()
		bws = append(bws, math.Exp(2.5)*math.Pow(u, -1/1.4))
	}
	theta, err := detect(NewAestDetector(), bws)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), bws...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if theta <= median {
		t.Errorf("theta = %v at or below the median %v", theta, median)
	}
	if res := stats.Aest(bws); !res.TailFound || theta != res.TailOnset {
		t.Errorf("theta = %v, want the tail onset of %+v", theta, res)
	}
	if fb := stats.QuantileSorted(sorted, 0.95); theta == fb {
		t.Errorf("theta = %v is the 0.95 fallback quantile", theta)
	}
}

// TestAestDetectorFallback: small light-tailed samples must fall back to
// the quantile threshold rather than fail.
func TestAestDetectorFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bws := make([]float64, 100)
	for i := range bws {
		bws[i] = 1 + rng.Float64()
	}
	theta, err := detect(NewAestDetector(), bws)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), bws...)
	sort.Float64s(sorted)
	if want := stats.QuantileSorted(sorted, 0.95); theta != want {
		t.Errorf("theta = %v, want the 0.95 fallback quantile %v", theta, want)
	}
}

// TestDetectorsQuickInvariants: no detector may return a negative or NaN
// threshold on positive input.
func TestDetectorsQuickInvariants(t *testing.T) {
	load, _ := NewConstantLoadDetector(0.8)
	aest := NewAestDetector()
	prop := func(raw []float64) bool {
		bws := make([]float64, 0, len(raw))
		for _, x := range raw {
			if v := math.Abs(x); v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
				bws = append(bws, math.Mod(v, 1e12)+1e-3)
			}
		}
		if len(bws) == 0 {
			return true
		}
		for _, det := range []Detector{load, aest} {
			theta, err := detect(det, bws)
			if err != nil {
				return false
			}
			if math.IsNaN(theta) || theta < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// refConstantLoad is the constant-load technique as it stood before
// detectors took the sorted view: a descending copy accumulated from the
// largest flow until it carries the target fraction of total traffic.
func refConstantLoad(beta float64, bws []float64) (float64, error) {
	if len(bws) == 0 {
		return 0, fmt.Errorf("empty interval")
	}
	desc := append([]float64(nil), bws...)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	var total float64
	for _, x := range desc {
		total += x
	}
	if total <= 0 {
		return 0, fmt.Errorf("zero total traffic")
	}
	target := beta * total
	var cum float64
	for i, x := range desc {
		cum += x
		if cum >= target {
			if i+1 < len(desc) {
				return desc[i+1], nil
			}
			break
		}
	}
	return desc[len(desc)-1] * 0.999, nil
}

// refAest is the aest technique on the raw column: the package-level
// estimator, which filters and sorts for itself, and the fallback
// quantile of a sorted copy when it finds no tail.
func refAest(bws []float64) (float64, error) {
	if len(bws) == 0 {
		return 0, fmt.Errorf("empty interval")
	}
	if res := stats.Aest(bws); res.TailFound {
		return res.TailOnset, nil
	}
	sorted := append([]float64(nil), bws...)
	sort.Float64s(sorted)
	return stats.QuantileSorted(sorted, 0.95), nil
}

// fuzzColumn decodes a bandwidth column: each big-endian uint16 u is the
// flow 1e3·2^(u/4096) bit/s, so the column spans sixteen octaves at a
// resolution fine enough for smooth shapes and coarse enough that ties
// are easy to reach. A trailing odd byte is ignored, and so is anything
// past fuzzMaxFlows flows: aest finds tails well below it, and a bounded
// column keeps each execution cheap enough for a short fuzzing run.
func fuzzColumn(b []byte) []float64 {
	bws := make([]float64, min(len(b)/2, fuzzMaxFlows))
	for i := range bws {
		bws[i] = 1e3 * math.Exp2(float64(binary.BigEndian.Uint16(b[2*i:]))/4096)
	}
	return bws
}

const fuzzMaxFlows = 1024

// fuzzBytes encodes a column fuzzColumn decodes to (values rounded to
// its grid and clamped into its range).
func fuzzBytes(bws []float64) []byte {
	b := make([]byte, 2*len(bws))
	for i, x := range bws {
		u := math.Round(4096 * math.Log2(x/1e3))
		binary.BigEndian.PutUint16(b[2*i:], uint16(min(max(u, 0), math.MaxUint16)))
	}
	return b
}

// FuzzDetectThreshold pins both techniques against their references:
// for every column, DetectThreshold(bw, sort(bw)) returns bitwise the
// reference's threshold, with the same error-ness, and leaves both views
// as it found them.
func FuzzDetectThreshold(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	heavy := make([]float64, 600)
	for i := range heavy {
		heavy[i] = 1e4 * math.Exp(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			heavy[i] = 2e4 * math.Pow(rng.Float64(), -1/1.4)
		}
	}
	light := make([]float64, 600)
	for i := range light {
		light[i] = 1e4 * (1 + rng.Float64())
	}
	ties := make([]float64, 400)
	for i := range ties {
		ties[i] = 1e4 * float64(1+i%3)
	}
	f.Add([]byte{})
	f.Add(fuzzBytes([]float64{42e3}))
	f.Add(fuzzBytes(heavy))
	f.Add(fuzzBytes(light))
	f.Add(fuzzBytes(ties))
	f.Add(append(fuzzBytes(heavy[:300]), 0xff))

	type detector struct {
		name string
		det  Detector
		ref  func([]float64) (float64, error)
	}
	var dets []detector
	for _, beta := range []float64{0.5, 0.8, 0.95} {
		d, err := NewConstantLoadDetector(beta)
		if err != nil {
			f.Fatal(err)
		}
		dets = append(dets, detector{d.Name(), d, func(bw []float64) (float64, error) { return refConstantLoad(beta, bw) }})
	}
	dets = append(dets, detector{"aest", NewAestDetector(), refAest})
	f.Fuzz(func(t *testing.T, b []byte) {
		bws := fuzzColumn(b)
		sorted := append([]float64(nil), bws...)
		sort.Float64s(sorted)
		bwsWas := append([]float64(nil), bws...)
		sortedWas := append([]float64(nil), sorted...)
		for _, d := range dets {
			got, err := d.det.DetectThreshold(bws, sorted)
			want, wantErr := d.ref(bws)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s on %d flows: err %v, reference err %v", d.name, len(bws), err, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s on %d flows: theta %v, reference %v", d.name, len(bws), got, want)
			}
			if !bitsEqual(bws, bwsWas) || !bitsEqual(sorted, sortedWas) {
				t.Fatalf("%s on %d flows modified its input", d.name, len(bws))
			}
		}
	})
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
