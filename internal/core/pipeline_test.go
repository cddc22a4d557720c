package core

import (
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
)

// fixedDetector returns a constant threshold, for isolating pipeline
// mechanics from detection.
type fixedDetector struct{ theta float64 }

func (d fixedDetector) DetectThreshold(_, _ []float64) (float64, error) { return d.theta, nil }
func (d fixedDetector) Name() string                                    { return "fixed" }

func TestNewPipelineValidation(t *testing.T) {
	det := fixedDetector{10}
	cls := &SingleFeatureClassifier{}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no detector", Config{Classifier: cls, Alpha: 0.5}},
		{"no classifier", Config{Detector: det, Alpha: 0.5}},
		{"alpha < 0", Config{Detector: det, Classifier: cls, Alpha: -0.1}},
		{"alpha = 1", Config{Detector: det, Classifier: cls, Alpha: 1}},
	}
	for _, tc := range cases {
		if _, err := NewPipeline(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestPipelineBootstrapUsesRawThreshold(t *testing.T) {
	p, err := NewPipeline(Config{Detector: fixedDetector{100}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Step(snap(150, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.RawThreshold != 100 || res.Threshold != 100 {
		t.Errorf("bootstrap thresholds: raw=%v used=%v", res.RawThreshold, res.Threshold)
	}
	if !res.Elephants.Contains(pfx(0)) || res.Elephants.Contains(pfx(1)) {
		t.Errorf("elephants = %v", res.Elephants.Flows())
	}
}

// TestStepSnapshotOrderEnforced: the push-style entry point accepts
// exactly the next interval index and rejects gaps and replays, so a
// streaming producer cannot silently skew the EWMA timeline.
func TestStepSnapshotOrderEnforced(t *testing.T) {
	p, err := NewPipeline(Config{Detector: fixedDetector{100}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StepSnapshot(1, snap(150)); err == nil {
		t.Error("gap (interval 1 before 0) accepted")
	}
	res, err := p.StepSnapshot(0, snap(150, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Interval != 0 {
		t.Errorf("Interval = %d", res.Interval)
	}
	if _, err := p.StepSnapshot(0, snap(150)); err == nil {
		t.Error("replay of interval 0 accepted")
	}
	if _, err := p.StepSnapshot(1, snap(150)); err != nil {
		t.Errorf("in-order step rejected: %v", err)
	}
	// Step and StepSnapshot share one interval counter.
	if _, err := p.Step(snap(150)); err != nil {
		t.Errorf("Step after StepSnapshot: %v", err)
	}
	if got := p.Intervals(); got != 3 {
		t.Errorf("Intervals = %d, want 3", got)
	}
}

type detectorFunc func(bw, sorted []float64) (float64, error)

func (f detectorFunc) DetectThreshold(bw, sorted []float64) (float64, error) { return f(bw, sorted) }
func (f detectorFunc) Name() string                                          { return "func" }

func TestPipelineMinFlowsReusesThreshold(t *testing.T) {
	calls := 0
	det := detectorFunc(func(_, _ []float64) (float64, error) {
		calls++
		return 100, nil
	})
	p, _ := NewPipeline(Config{Detector: det, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 3})

	if _, err := p.Step(snap(10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("detector calls = %d", calls)
	}
	// Two flows < MinFlows: detector must not run; previous estimate is
	// reused.
	res, err := p.Step(snap(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("detector ran on a sparse interval")
	}
	if res.RawThreshold != 100 {
		t.Errorf("reused threshold = %v", res.RawThreshold)
	}
}

// TestPipelineSparseFirstIntervalFails: of the sparse first intervals
// only an empty one fails, leaving the pipeline where it was. Before the
// first threshold MinFlows does not gate detection, so an interval with
// one flow is detected on.
func TestPipelineSparseFirstIntervalFails(t *testing.T) {
	p, _ := NewPipeline(Config{Detector: fixedDetector{1}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 5})
	if _, err := p.Step(snap()); err == nil || p.Intervals() != 0 {
		t.Errorf("empty bootstrap interval: err %v at interval %d, want an error at 0", err, p.Intervals())
	}
	res, err := p.Step(snap(10))
	if err != nil || res.RawThreshold != 1 || res.ElephantCount() != 1 {
		t.Errorf("sparse bootstrap interval: %+v, %v; want θ = 1 detected and one elephant", res, err)
	}
}

func TestPipelineResultAccounting(t *testing.T) {
	p, _ := NewPipeline(Config{Detector: fixedDetector{100}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	res, err := p.Step(snap(150, 250, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveFlows != 3 {
		t.Errorf("ActiveFlows = %d", res.ActiveFlows)
	}
	if res.TotalLoad != 450 {
		t.Errorf("TotalLoad = %v", res.TotalLoad)
	}
	if res.ElephantLoad != 400 {
		t.Errorf("ElephantLoad = %v", res.ElephantLoad)
	}
	if got := res.LoadFraction(); math.Abs(got-400.0/450) > 1e-12 {
		t.Errorf("LoadFraction = %v", got)
	}
	if res.ElephantCount() != 2 {
		t.Errorf("ElephantCount = %d", res.ElephantCount())
	}
}

func TestPipelineIgnoresNonPositiveBandwidths(t *testing.T) {
	p, _ := NewPipeline(Config{Detector: fixedDetector{10}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	s := SnapshotFromMap(map[netip.Prefix]float64{pfx(0): 100, pfx(1): 0, pfx(2): -5}, nil)
	res, err := p.Step(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveFlows != 1 || res.TotalLoad != 100 {
		t.Errorf("res = %+v", res)
	}
}

func TestPipelineRejectsUnsortedSnapshot(t *testing.T) {
	p, _ := NewPipeline(Config{Detector: fixedDetector{10}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	s := NewFlowSnapshot(2)
	s.Append(pfx(3), 10)
	s.Append(pfx(1), 10) // out of order
	if _, err := p.Step(s); err == nil {
		t.Error("unsorted snapshot accepted")
	}
	s.Reset()
	s.Append(pfx(1), 10)
	s.Append(pfx(1), 10) // one prefix twice
	if _, err := p.Step(s); err == nil {
		t.Error("snapshot with a repeated prefix accepted")
	}
	if _, err := p.Step(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestPipelineDebugInvariants: with DebugInvariants enabled the O(n)
// re-verification catches columns mutated behind the sorted flag.
func TestPipelineDebugInvariants(t *testing.T) {
	DebugInvariants = true
	defer func() { DebugInvariants = false }()

	p, _ := NewPipeline(Config{Detector: fixedDetector{10}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	if _, err := p.Step(snap(100, 200)); err != nil {
		t.Fatalf("valid snapshot rejected under debug checks: %v", err)
	}
	s := snap(100, 200)
	keys := s.Keys()
	keys[0], keys[1] = keys[1], keys[0] // mutate behind the flag
	if _, err := p.Step(s); err == nil {
		t.Error("mutated snapshot passed the debug invariant check")
	}

	// An overlapping verdict (offline flow also present in the
	// snapshot) must be rejected too.
	overlap := classifierFunc(func(sn *FlowSnapshot, _ float64) Verdict {
		return Verdict{Offline: []netip.Prefix{sn.Key(0)}}
	})
	p2, _ := NewPipeline(Config{Detector: fixedDetector{10}, Alpha: 0.5, Classifier: overlap, MinFlows: 1})
	if _, err := p2.Step(snap(100)); err == nil {
		t.Error("verdict with snapshot/offline overlap passed the debug check")
	}
	// So must a verdict that breaks the ordering contract, each with its
	// own error.
	for _, tc := range []struct {
		want string
		v    Verdict
	}{
		{"index -1 out of range", Verdict{Indices: []int{-1}}},
		{"index 2 out of range", Verdict{Indices: []int{2}}},
		{"indices not ascending at position 1", Verdict{Indices: []int{1, 1}}},
		{"offline flows not sorted at position 1", Verdict{Offline: []netip.Prefix{pfx(9), pfx(9)}}},
	} {
		bad := classifierFunc(func(*FlowSnapshot, float64) Verdict { return tc.v })
		p3, _ := NewPipeline(Config{Detector: fixedDetector{10}, Alpha: 0.5, Classifier: bad, MinFlows: 1})
		if _, err := p3.Step(snap(100, 200)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("verdict %+v: error %v, want one containing %q", tc.v, err, tc.want)
		}
	}
	// And an ID column stamped by the pipeline's own table whose IDs
	// name other prefixes.
	lh, _ := NewLatentHeatClassifier(2)
	p4, _ := NewPipeline(Config{Detector: fixedDetector{10}, Alpha: 0.5, Classifier: lh, MinFlows: 1})
	p4.Table().Intern(pfx(5))
	wrong := NewFlowSnapshot(1)
	wrong.AppendID(pfx(0), 0, 100) // ID 0 is pfx(5)
	wrong.SetIDTable(p4.Table())
	if _, err := p4.Step(wrong); err == nil || !strings.Contains(err.Error(), "does not resolve") {
		t.Errorf("a mis-stamped ID column: error %v, want one saying it does not resolve", err)
	}
}

type classifierFunc func(*FlowSnapshot, float64) Verdict

func (f classifierFunc) Classify(s *FlowSnapshot, th float64) Verdict { return f(s, th) }
func (f classifierFunc) Name() string                                 { return "func" }

func TestLoadFractionIdleLink(t *testing.T) {
	r := Result{}
	if r.LoadFraction() != 0 {
		t.Error("idle link fraction must be 0")
	}
	// A link carrying under 1 bit/s is not idle.
	if r := (Result{ElephantLoad: 0.25, TotalLoad: 0.5}); r.LoadFraction() != 0.5 {
		t.Errorf("fraction %v of a 0.5 bit/s link, want 0.5", r.LoadFraction())
	}
}

// TestPipelineAlphaZeroTracksRaw: with alpha=0 the smoothed threshold is
// just the previous interval's raw threshold.
func TestPipelineAlphaZeroTracksRaw(t *testing.T) {
	seq := []float64{100, 300, 700}
	i := 0
	det := detectorFunc(func(_, _ []float64) (float64, error) { v := seq[i]; i++; return v, nil })
	p, _ := NewPipeline(Config{Detector: det, Alpha: 0, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	p.Step(snap(1))
	r1, _ := p.Step(snap(1))
	r2, _ := p.Step(snap(1))
	if r1.Threshold != 100 || r2.Threshold != 300 {
		t.Errorf("thresholds: t1=%v t2=%v, want 100, 300", r1.Threshold, r2.Threshold)
	}
}

// TestPipelineSmoothness: higher alpha must yield a smoother threshold
// series (lower variance of increments) on noisy raw thresholds — the
// property the paper's alpha=0.5 choice relies on.
func TestPipelineSmoothness(t *testing.T) {
	variance := func(alpha float64) float64 {
		rng := rand.New(rand.NewSource(50))
		det := detectorFunc(func(_, _ []float64) (float64, error) {
			return 100 * math.Exp(rng.NormFloat64()), nil
		})
		p, _ := NewPipeline(Config{Detector: det, Alpha: alpha, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
		var prev float64
		var incs []float64
		for i := 0; i < 300; i++ {
			res, err := p.Step(snap(1))
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				incs = append(incs, res.Threshold-prev)
			}
			prev = res.Threshold
		}
		var mean, m2 float64
		for _, x := range incs {
			mean += x
		}
		mean /= float64(len(incs))
		for _, x := range incs {
			m2 += (x - mean) * (x - mean)
		}
		return m2 / float64(len(incs))
	}
	v0, v9 := variance(0.01), variance(0.9)
	if v9 >= v0 {
		t.Errorf("alpha=0.9 increments variance %v >= alpha=0.01 variance %v", v9, v0)
	}
}

func TestPipelineDetectorErrorPropagates(t *testing.T) {
	det := detectorFunc(func(_, _ []float64) (float64, error) {
		return 0, errTest
	})
	p, _ := NewPipeline(Config{Detector: det, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	if _, err := p.Step(snap(1)); err == nil {
		t.Error("detector error swallowed")
	}
}

var errTest = &DetectorError{}

// DetectorError is a test-local error type.
type DetectorError struct{}

func (*DetectorError) Error() string { return "detector boom" }

func TestPipelineConfigEcho(t *testing.T) {
	p, _ := NewPipeline(Config{Detector: fixedDetector{1}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}})
	if p.Config().MinFlows != 16 {
		t.Errorf("default MinFlows = %d, want 16", p.Config().MinFlows)
	}
}

// TestPipelineResultOutlivesSnapshot: Result owns its storage, so
// resetting and refilling the snapshot for the next interval must not
// corrupt earlier results — the reuse contract the engine relies on.
func TestPipelineResultOutlivesSnapshot(t *testing.T) {
	p, _ := NewPipeline(Config{Detector: fixedDetector{100}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	s := NewFlowSnapshot(2)
	s.Append(pfx(0), 150)
	s.Append(pfx(1), 50)
	r0, err := p.Step(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	s.Append(pfx(5), 500)
	if _, err := p.Step(s); err != nil {
		t.Fatal(err)
	}
	if !r0.Elephants.Contains(pfx(0)) || r0.Elephants.Contains(pfx(5)) {
		t.Errorf("result corrupted by snapshot reuse: %v", r0.Elephants.Flows())
	}
}

// TestPipelineManyElephants: an interval whose elephant set outgrows the
// result arena's default chunk still gets every elephant.
func TestPipelineManyElephants(t *testing.T) {
	p, _ := NewPipeline(Config{Detector: fixedDetector{10}, Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1})
	s := NewFlowSnapshot(3000)
	for i := range 3000 {
		s.Append(pfx(i), 100)
	}
	if res, err := p.Step(s); err != nil || res.ElephantCount() != 3000 {
		t.Errorf("3000 flows above θ̂: %d elephants (err %v)", res.ElephantCount(), err)
	}
}
