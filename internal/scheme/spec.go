package scheme

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Defaults shared across the repository: the paper's parameter choices.
const (
	// DefaultAlpha is the EWMA weight the paper finds sufficiently
	// smooth.
	DefaultAlpha = 0.5
	// DefaultLatentWindow is the latent-heat lookback: one hour of
	// five-minute slots.
	DefaultLatentWindow = 12
)

// Component is one side of a spec: a registered name plus the
// parameters the spec set explicitly.
type Component struct {
	Name   string
	Params Params
}

// clone returns an independent copy.
func (c Component) clone() Component {
	return Component{Name: c.Name, Params: c.Params.clone()}
}

// String renders the component in spec syntax with parameters in
// lexical key order, so equal components render identically.
func (c Component) String() string {
	if len(c.Params) == 0 {
		return c.Name
	}
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + c.Params[k]
	}
	return c.Name + ":" + strings.Join(parts, ",")
}

// Spec is one parsed classification scheme: a detector and a classifier
// with their parameters, plus the pipeline-level settings that sit
// outside the spec grammar. A Spec fresh from Parse is the paper's
// configuration of the named components: Alpha is DefaultAlpha and the
// zero MinFlows selects core's 16.
type Spec struct {
	Detector   Component
	Classifier Component
	// Alpha is the EWMA weight on the previous smoothed threshold, in
	// [0,1); 0 means no smoothing. (CLIs expose it as -alpha.)
	Alpha float64
	// MinFlows is the minimum active-flow count for detection; 0
	// selects the core.Config default.
	MinFlows int
}

// String renders the spec in canonical grammar form,
// "detector[:k=v,...]+classifier[:k=v,...]"; Parse round-trips it.
func (s *Spec) String() string {
	return s.Detector.String() + "+" + s.Classifier.String()
}

// Config compiles the spec into a pipeline configuration with fresh
// detector and classifier instances — every call returns independent
// state, so Config is directly usable as an engine.Link config factory
// (the engine's fresh-instances-per-link determinism contract).
func (s *Spec) Config() (core.Config, error) {
	if !(s.Alpha >= 0 && s.Alpha < 1) {
		return core.Config{}, fmt.Errorf("scheme: alpha %v outside [0,1)", s.Alpha)
	}
	det, err := s.BuildDetector()
	if err != nil {
		return core.Config{}, err
	}
	cd, ok := classifiers[s.Classifier.Name]
	if !ok {
		return core.Config{}, fmt.Errorf("scheme: unknown classifier %q", s.Classifier.Name)
	}
	cls, err := cd.buildClassifier(s.Classifier.Params)
	if err != nil {
		return core.Config{}, fmt.Errorf("scheme: %s: %w", s.Classifier.Name, err)
	}
	return core.Config{Detector: det, Alpha: s.Alpha, Classifier: cls, MinFlows: s.MinFlows}, nil
}

// Factory returns the spec's config factory — the method value plugs
// straight into engine.Link.Config / engine.StreamLink.Config.
func (s *Spec) Factory() func() (core.Config, error) { return s.Config }

// DetectorKey returns the detector component's canonical form —
// name plus parameters in lexical key order — which is the engine's
// threshold-cache key: detection is a pure function of (detector
// config, interval bandwidths), so two specs with equal DetectorKeys
// produce byte-identical θ(t) columns on the same link and may share
// one computation. Specs differing in any detector parameter render
// different keys; classifier, Alpha and MinFlows deliberately do not
// enter the key (they act downstream of detection).
func (s *Spec) DetectorKey() string { return s.Detector.String() }

// BuildDetector compiles just the spec's detector component — a fresh,
// independent instance per call. The engine's prepass uses it to give
// each precomputed threshold column its own detector state without
// building (and discarding) a classifier.
func (s *Spec) BuildDetector() (core.Detector, error) {
	dd, ok := detectors[s.Detector.Name]
	if !ok {
		return nil, fmt.Errorf("scheme: unknown detector %q", s.Detector.Name)
	}
	det, err := dd.buildDetector(s.Detector.Params)
	if err != nil {
		return nil, fmt.Errorf("scheme: %s: %w", s.Detector.Name, err)
	}
	return det, nil
}

// Validate builds the spec's components once and discards them,
// reporting any parameter-value error (unknown names and keys are
// already rejected by Parse).
func (s *Spec) Validate() error {
	_, err := s.Config()
	return err
}

// Name returns the scheme's display name as used in reports and
// figures, composed from the instantiated components: the detector's
// name, plus the classifier's unless it is the single-feature default —
// e.g. "0.80-constant-load+latent-heat" or "aest".
func (s *Spec) Name() string {
	cfg, err := s.Config()
	if err != nil {
		return s.String()
	}
	if _, single := cfg.Classifier.(*core.SingleFeatureClassifier); single {
		return cfg.Detector.Name()
	}
	return cfg.Detector.Name() + "+" + cfg.Classifier.Name()
}

// LatentWindow returns the classifier's latent-heat window and true
// when the spec uses the latent classifier, 0 and false otherwise. It
// is how streaming ingestion derives its accumulator window from the
// scheme (see engine.StreamWindow).
func (s *Spec) LatentWindow() (int, bool) {
	if s.Classifier.Name != "latent" {
		return 0, false
	}
	w, err := s.Classifier.Params.Int("window", DefaultLatentWindow)
	if err != nil || w < 1 {
		return DefaultLatentWindow, true
	}
	return w, true
}

// WithDetectorParam returns a copy of the spec with one detector
// parameter overridden — the sweep helper (e.g. ablations re-running
// one spec across beta values).
func (s *Spec) WithDetectorParam(key, value string) *Spec {
	out := s.copySpec()
	out.Detector.Params = setParam(out.Detector.Params, key, value)
	return out
}

// WithClassifierParam returns a copy of the spec with one classifier
// parameter overridden.
func (s *Spec) WithClassifierParam(key, value string) *Spec {
	out := s.copySpec()
	out.Classifier.Params = setParam(out.Classifier.Params, key, value)
	return out
}

func (s *Spec) copySpec() *Spec {
	return &Spec{
		Detector:   s.Detector.clone(),
		Classifier: s.Classifier.clone(),
		Alpha:      s.Alpha,
		MinFlows:   s.MinFlows,
	}
}

func setParam(p Params, key, value string) Params {
	if p == nil {
		p = Params{}
	}
	p[key] = value
	return p
}

// MustParse is Parse for programmatically-built specs; it panics on
// error. Use it only on literals and trusted format strings.
func MustParse(spec string) *Spec {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}
