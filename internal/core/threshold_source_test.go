package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// columnSource is a test ThresholdSource backed by explicit per-interval
// entries. An interval with neither entry is one the pipeline must not
// ask about, and asking is reported.
type columnSource struct {
	theta map[int]float64
	errs  map[int]error
}

func (s *columnSource) RawThreshold(t int) (float64, error) {
	if err, ok := s.errs[t]; ok {
		return 0, err
	}
	th, ok := s.theta[t]
	if !ok {
		return 0, fmt.Errorf("columnSource: interval %d asked for but not loaded", t)
	}
	return th, nil
}

// randomSnaps builds a deterministic sequence of snapshots with varying
// flow counts, some below the default MinFlows.
func randomSnaps(seed int64, n int) []*FlowSnapshot {
	rng := rand.New(rand.NewSource(seed))
	snaps := make([]*FlowSnapshot, n)
	for t := range snaps {
		flows := 2 + rng.Intn(60)
		if t == 0 {
			flows += 16 // bootstrap interval must clear MinFlows
		}
		pairs := make([]float64, flows)
		for i := range pairs {
			pairs[i] = rng.Float64() * 1e6
		}
		snaps[t] = snap(pairs...)
	}
	return snaps
}

// TestPipelineThresholdSourceEquivalence pins the tentpole contract: a
// pipeline consuming a ThresholdSource loaded with the inline path's
// raw thresholds produces byte-identical Results, including intervals
// below MinFlows (which it must not ask the source about) and EWMA
// state threading across both kinds.
func TestPipelineThresholdSourceEquivalence(t *testing.T) {
	cfg := func() Config {
		return Config{Detector: NewAestDetector(), Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 16}
	}
	snaps := randomSnaps(42, 50)

	inline, err := NewPipeline(cfg())
	if err != nil {
		t.Fatal(err)
	}
	src := &columnSource{theta: map[int]float64{}}
	var want []Result
	for _, s := range snaps {
		res, err := inline.Step(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.ActiveFlows >= 16 {
			// Only detector-run intervals enter the column, mirroring
			// the engine prepass.
			src.theta[res.Interval] = res.RawThreshold
		}
		want = append(want, res)
	}

	c := cfg()
	c.Thresholds = src
	cached, err := NewPipeline(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		res, err := cached.Step(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want[i]) {
			t.Fatalf("interval %d: cached result diverged\nwant %+v\ngot  %+v", i, want[i], res)
		}
	}
}

// TestPipelineThresholdSourceError: a source-recorded detection error
// fails the interval with the same wrapping the inline detector path
// uses.
func TestPipelineThresholdSourceError(t *testing.T) {
	detErr := errors.New("core: aest: empty interval")
	c := Config{Detector: NewAestDetector(), Alpha: 0.5, Classifier: &SingleFeatureClassifier{}, MinFlows: 1,
		Thresholds: &columnSource{errs: map[int]error{0: detErr}}}
	p, err := NewPipeline(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Step(snap(100, 50))
	if err == nil || !errors.Is(err, detErr) {
		t.Fatalf("source error not surfaced: %v", err)
	}
	if want := fmt.Sprintf("core: interval 0: %v", detErr); err.Error() != want {
		t.Fatalf("error text %q, want %q", err.Error(), want)
	}
}
