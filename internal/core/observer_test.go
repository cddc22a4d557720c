package core

import (
	"reflect"
	"testing"
	"time"
)

// recordingObserver captures every observation it receives.
type recordingObserver struct{ obs []StepObservation }

func (r *recordingObserver) ObserveStep(o StepObservation) { r.obs = append(r.obs, o) }

func TestObserverReceivesStepDigest(t *testing.T) {
	rec := &recordingObserver{}
	mk := func(obs StageObserver) *Pipeline {
		p, err := NewPipeline(Config{
			Detector:   fixedDetector{100},
			Alpha:      0.5,
			Classifier: &SingleFeatureClassifier{},
			MinFlows:   1,
			Observer:   obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bare, inst := mk(nil), mk(rec)

	// Flows against theta 100: one elephant, then pfx(1) promoted, then
	// pfx(0) demoted. The observation carries none of that — the Result
	// does, and it is the uninstrumented pipeline's Result.
	begin := time.Now()
	for i, bws := range [][]float64{{150, 50, 30}, {150, 120, 30}, {30, 120, 30}} {
		want, err := bare.Step(snap(bws...))
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Step(snap(bws...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("interval %d: observed pipeline returned %+v, bare one %+v", i, got, want)
		}
	}

	elapsed := time.Since(begin).Nanoseconds()
	if len(rec.obs) != 3 {
		t.Fatalf("observer saw %d observations, want 3", len(rec.obs))
	}
	for i, o := range rec.obs {
		if o.Interval != i {
			t.Errorf("obs %d: interval %d", i, o.Interval)
		}
		if o.DetectNanos < 0 || o.ClassifyNanos < 0 || o.FinalizeNanos < 0 {
			t.Errorf("obs %d: negative stage time %+v", i, o)
		}
		if o.StepNanos <= 0 || o.StepNanos < o.DetectNanos+o.ClassifyNanos+o.FinalizeNanos {
			t.Errorf("obs %d: StepNanos %d, want positive and at least the sum of the stages %+v", i, o.StepNanos, o)
		}
		if max(o.StepNanos, o.DetectNanos, o.ClassifyNanos, o.FinalizeNanos) > elapsed {
			t.Errorf("obs %d: %+v, a time above the %d ns all three steps took", i, o, elapsed)
		}
	}
}

// TestObserverDoesNotChangeResults: an attached observer is pure
// instrumentation — every Result field stays identical to the
// uninstrumented run.
func TestObserverDoesNotChangeResults(t *testing.T) {
	mk := func(obs StageObserver) *Pipeline {
		p, err := NewPipeline(Config{
			Detector:   fixedDetector{90},
			Alpha:      0.5,
			Classifier: &SingleFeatureClassifier{},
			MinFlows:   1,
			Observer:   obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bare, inst := mk(nil), mk(&recordingObserver{})
	intervals := [][]float64{{150, 50}, {80, 120, 95}, {10, 20}, {300}}
	for i, bws := range intervals {
		rb, errB := bare.Step(snap(bws...))
		ri, errI := inst.Step(snap(bws...))
		if (errB == nil) != (errI == nil) {
			t.Fatalf("interval %d: error mismatch: %v vs %v", i, errB, errI)
		}
		if rb.RawThreshold != ri.RawThreshold || rb.Threshold != ri.Threshold ||
			rb.ElephantLoad != ri.ElephantLoad || rb.TotalLoad != ri.TotalLoad ||
			rb.ActiveFlows != ri.ActiveFlows || !rb.Elephants.Equal(ri.Elephants) {
			t.Errorf("interval %d: results diverge: %+v vs %+v", i, rb, ri)
		}
	}
}

// TestObserverSkippedOnError: failed steps observe nothing — the digest
// stream contains exactly the classified intervals.
func TestObserverSkippedOnError(t *testing.T) {
	rec := &recordingObserver{}
	p, err := NewPipeline(Config{
		Detector:   fixedDetector{100},
		Alpha:      0.5,
		Classifier: &SingleFeatureClassifier{},
		MinFlows:   4,
		Observer:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Below MinFlows with no prior threshold: the step fails.
	if _, err := p.Step(snap(150, 50)); err == nil {
		t.Fatal("sparse bootstrap accepted")
	}
	if len(rec.obs) != 0 {
		t.Fatalf("failed step observed: %+v", rec.obs)
	}
	if _, err := p.Step(snap(150, 50, 30, 20)); err != nil {
		t.Fatal(err)
	}
	if len(rec.obs) != 1 {
		t.Fatalf("observer saw %d observations, want 1", len(rec.obs))
	}
}

func TestChurn(t *testing.T) {
	set := func(idx ...int) ElephantSet {
		s := NewFlowSnapshot(len(idx))
		for _, i := range idx {
			s.Append(pfx(i), 1)
		}
		return mergeElephantsArena(s, Verdict{Indices: seqIndices(len(idx))}, nil)
	}
	cases := []struct {
		name              string
		prev, cur         ElephantSet
		promoted, demoted int
	}{
		{"both empty", set(), set(), 0, 0},
		{"all new", set(), set(1, 2, 3), 3, 0},
		{"all gone", set(1, 2, 3), set(), 0, 3},
		{"identical", set(1, 2), set(1, 2), 0, 0},
		{"overlap", set(1, 2, 5), set(2, 5, 7, 9), 2, 1},
		{"disjoint", set(1, 3), set(2, 4), 2, 2},
	}
	for _, tc := range cases {
		p, d := Churn(tc.prev, tc.cur)
		if p != tc.promoted || d != tc.demoted {
			t.Errorf("%s: Churn = +%d/-%d, want +%d/-%d", tc.name, p, d, tc.promoted, tc.demoted)
		}
	}
}

func seqIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
