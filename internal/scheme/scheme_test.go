package scheme

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestParseValid is the table-driven grammar test: spec in, canonical
// form and resolved components out.
func TestParseValid(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
		det, cls  string
	}{
		{"load+latent", "load+latent", "load", "latent"},
		{"load:beta=0.8+latent:window=12", "load:beta=0.8+latent:window=12", "load", "latent"},
		{"aest+single", "aest+single", "aest", "single"},
		// Single-component specs: a lone detector gets the
		// single-feature classifier, a lone classifier the default
		// detector.
		{"aest", "aest+single", "aest", "single"},
		{"load:beta=0.5", "load:beta=0.5+single", "load", "single"},
		{"topk:k=50", "load+topk:k=50", "load", "topk"},
		{"latent:window=24", "load+latent:window=24", "load", "latent"},
		{"misragries:k=10", "load+misragries:k=10", "load", "misragries"},
		{"spacesaving", "load+spacesaving", "load", "spacesaving"},
		{"fixed:theta=2e6", "fixed:theta=2e6+single", "fixed", "single"},
		// Spaces are tolerated around names, keys and values.
		{" load : beta = 0.7 + latent : window = 6 ", "load:beta=0.7+latent:window=6", "load", "latent"},
	}
	for _, c := range cases {
		sp, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := sp.String(); got != c.canonical {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.canonical)
		}
		if sp.Detector.Name != c.det || sp.Classifier.Name != c.cls {
			t.Errorf("Parse(%q) = %s+%s, want %s+%s", c.in, sp.Detector.Name, sp.Classifier.Name, c.det, c.cls)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("Parse(%q).Validate(): %v", c.in, err)
		}
	}
}

// TestParseErrors pins the error classes and that unknown-name errors
// carry the registry listing (so CLI help can never rot).
func TestParseErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"", "empty component name"},
		{"bogus", "unknown component"},
		{"bogus+single", "unknown detector"},
		{"load+bogus", "unknown classifier"},
		{"load+aest", "is a detector"},
		{"latent+single", "is a classifier"},
		{"load+latent+single", "3 components"},
		{"+single", "empty component name"},
		{"load+", "empty component name"},
		{"load:", "empty parameter list"},
		{"load:beta", "not key=value"},
		{"load:=0.8", "not key=value"},
		{"load:beta=", "empty value"},
		{"load:beta=0.8,beta=0.9", "set twice"},
		{"load:k=5", `no parameter "k"`},
		{"single:k=5", "takes no parameters"},
		// Each component runs at one configuration beyond these.
		{"load+latent:evict=4", `no parameter "evict"`},
		{"aest:fallback=0.9", "takes no parameters"},
		{"misragries:frac=0.01", `no parameter "frac"`},
		{"spacesaving:k=9,frac=0.2", `no parameter "frac"`},
		{"load:beta=0.8:0.9", "value contains"},
		{"topk:k=1=2", "value contains"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %q", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) = %v, want substring %q", c.in, err, c.wantSub)
		}
	}
	// Of two unknown keys the error names the first in lexical order,
	// whatever order the map of parameters hands them out in.
	for range 32 {
		if _, err := Parse("load:zeta=1,alpha=2"); err == nil || !strings.Contains(err.Error(), `no parameter "alpha"`) {
			t.Fatalf(`Parse("load:zeta=1,alpha=2") = %v, want it to name "alpha"`, err)
		}
	}
	// Unknown names enumerate the registry.
	_, err := Parse("nope")
	for _, name := range append(sortedNames(detectors), sortedNames(classifiers)...) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-component error does not list %q:\n%v", name, err)
		}
	}
}

// TestValidateValues pins that value errors surface at Validate, not
// Parse (the grammar is value-agnostic).
func TestValidateValues(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string
	}{
		{"load:beta=2", "outside (0,1)"},
		{"load:beta=x", "not a number"},
		{"latent:window=0", "window 0 < 1"},
		{"latent:window=1.5", "not an integer"},
		{"topk:k=0", "top-k with k=0"},
		{"misragries:k=0", "misra-gries with k=0"},
		{"spacesaving:k=-1", "space-saving with k=-1"},
		{"fixed+single", "required parameter theta"},
		{"fixed:theta=-5", "must be positive"},
	}
	for _, c := range cases {
		sp, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v (value errors belong to Validate)", c.in, err)
			continue
		}
		err = sp.Validate()
		if err == nil {
			t.Errorf("Validate(%q): no error, want %q", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Validate(%q) = %v, want substring %q", c.in, err, c.wantSub)
		}
	}
}

// TestDetectorsDoNotModifyInputs: every registered detector reads both
// views of an interval read-only — the contract that lets one sorted
// column serve every pipeline stepping the snapshot — on a heavy-tailed
// column (aest detects a tail) and a light one (aest falls back).
func TestDetectorsDoNotModifyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	heavy := make([]float64, 4000)
	light := make([]float64, 400)
	for i := range heavy {
		heavy[i] = 1e4 * math.Pow(rng.Float64(), -1/1.4)
	}
	for i := range light {
		light[i] = 1e4 * (1 + rng.Float64())
	}
	for _, ex := range DetectorExamples() {
		sp, err := Parse(ex)
		if err != nil {
			t.Fatalf("Parse(%q): %v", ex, err)
		}
		det, err := sp.BuildDetector()
		if err != nil {
			t.Fatalf("%s: %v", ex, err)
		}
		for _, bw := range [][]float64{heavy, light} {
			sorted := append([]float64(nil), bw...)
			sort.Float64s(sorted)
			bwWas := append([]float64(nil), bw...)
			sortedWas := append([]float64(nil), sorted...)
			if _, err := det.DetectThreshold(bw, sorted); err != nil {
				t.Fatalf("%s: %v", ex, err)
			}
			if !reflect.DeepEqual(bw, bwWas) || !reflect.DeepEqual(sorted, sortedWas) {
				t.Errorf("%s modified its input on %d flows", ex, len(bw))
			}
		}
	}
}

// TestRoundTrip: Parse(String()) is the identity on canonical forms for
// every registry example pair.
func TestRoundTrip(t *testing.T) {
	for _, det := range DetectorExamples() {
		for _, cls := range ClassifierExamples() {
			in := det + "+" + cls
			sp, err := Parse(in)
			if err != nil {
				t.Fatalf("Parse(%q): %v", in, err)
			}
			again, err := Parse(sp.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", sp.String(), err)
			}
			if again.String() != sp.String() {
				t.Errorf("round trip %q -> %q -> %q", in, sp.String(), again.String())
			}
		}
	}
}

// TestSpecName pins the display names reports and figures use
// (previously experiments.SchemeConfig.Name).
func TestSpecName(t *testing.T) {
	cases := map[string]string{
		"load":            "0.80-constant-load",
		"load:beta=0.5":   "0.50-constant-load",
		"aest":            "aest",
		"aest+latent":     "aest+latent-heat",
		"load+latent":     "0.80-constant-load+latent-heat",
		"topk:k=7":        "0.80-constant-load+top-7",
		"fixed:theta=1e6": "fixed-1e+06",
		"misragries:k=9":  "0.80-constant-load+misra-gries-9",
		"spacesaving:k=9": "0.80-constant-load+space-saving-9",
	}
	for in, want := range cases {
		if got := MustParse(in).Name(); got != want {
			t.Errorf("Name(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFactoryFreshInstances pins the engine determinism contract: each
// Config call builds independent classifier state.
func TestFactoryFreshInstances(t *testing.T) {
	sp := MustParse("load+latent")
	factory := sp.Factory()
	a, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	b, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	if a.Classifier == b.Classifier {
		t.Fatal("two factory calls returned the same classifier instance")
	}
	if a.Detector == b.Detector {
		t.Fatal("two factory calls returned the same detector instance")
	}
	if a.Alpha != DefaultAlpha {
		t.Errorf("default alpha = %v, want %v", a.Alpha, DefaultAlpha)
	}
}

func TestSpecPipelineLevels(t *testing.T) {
	sp := MustParse("load+single")
	sp.Alpha = 0.25
	sp.MinFlows = 4
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != 0.25 || cfg.MinFlows != 4 {
		t.Errorf("alpha/minflows = %v/%d, want 0.25/4", cfg.Alpha, cfg.MinFlows)
	}
}

// TestSpecAlpha: Parse sets the paper's α, Alpha holds the weight itself
// — 0 is no smoothing, not "unset" — and Config rejects a weight
// outside [0,1) instead of leaving it to the first interval.
func TestSpecAlpha(t *testing.T) {
	if a := MustParse("load+latent").Alpha; a != DefaultAlpha {
		t.Errorf("parsed alpha = %v, want %v", a, DefaultAlpha)
	}
	sp := MustParse("load+latent")
	sp.Alpha = 0
	cfg, err := sp.Config()
	if err != nil {
		t.Fatalf("alpha 0: %v", err)
	}
	if cfg.Alpha != 0 {
		t.Errorf("alpha 0 compiled to %v", cfg.Alpha)
	}
	for _, a := range []float64{1, 1.5, -0.1, math.NaN(), math.Inf(1)} {
		sp.Alpha = a
		if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "outside [0,1)") {
			t.Errorf("alpha %v: Validate() = %v, want an outside [0,1) error", a, err)
		}
	}
}

func TestLatentWindow(t *testing.T) {
	if w, ok := MustParse("load+latent").LatentWindow(); !ok || w != DefaultLatentWindow {
		t.Errorf("LatentWindow(load+latent) = %d,%v", w, ok)
	}
	if w, ok := MustParse("latent:window=24").LatentWindow(); !ok || w != 24 {
		t.Errorf("LatentWindow(window=24) = %d,%v", w, ok)
	}
	if _, ok := MustParse("load+single").LatentWindow(); ok {
		t.Error("single-feature spec reported a latent window")
	}
}

// TestWithParam: overrides copy, never mutate the receiver.
func TestWithParam(t *testing.T) {
	base := MustParse("load+latent")
	swept := base.WithClassifierParam("window", "24").WithDetectorParam("beta", "0.6")
	if got := swept.String(); got != "load:beta=0.6+latent:window=24" {
		t.Errorf("swept spec = %q", got)
	}
	if got := base.String(); got != "load+latent" {
		t.Errorf("base spec mutated to %q", got)
	}
	if w, _ := swept.LatentWindow(); w != 24 {
		t.Errorf("swept latent window = %d", w)
	}
	cfg, err := swept.Config()
	if err != nil {
		t.Fatal(err)
	}
	if lh, ok := cfg.Classifier.(*core.LatentHeatClassifier); !ok || lh.Window != 24 {
		t.Errorf("swept classifier = %#v", cfg.Classifier)
	}
}

// TestListCoversRegistry: the generated help text names every component
// and parameter, and the registry declares exactly the parameters a
// caller outside the tests sets.
func TestListCoversRegistry(t *testing.T) {
	ls := List()
	for _, name := range append(sortedNames(detectors), sortedNames(classifiers)...) {
		if !strings.Contains(ls, name) {
			t.Errorf("List() missing component %q", name)
		}
	}
	want := []string{"beta", "k", "theta", "window"}
	for _, key := range want {
		if !strings.Contains(ls, key+"=") {
			t.Errorf("List() missing parameter %q", key)
		}
	}
	keys := map[string]bool{}
	for _, d := range components {
		for _, p := range d.params {
			keys[p.Key] = true
		}
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry parameters %v, want %v", got, want)
	}
	if !strings.Contains(FlagUsage(), "detector[:k=v,...]+classifier[:k=v,...]") {
		t.Error("FlagUsage() missing the grammar synopsis")
	}
}

// TestExamplesValidate: every registry example must parse and validate;
// the end-to-end equivalence tests fan out over them.
func TestExamplesValidate(t *testing.T) {
	for _, ex := range append(DetectorExamples(), ClassifierExamples()...) {
		sp, err := Parse(ex)
		if err != nil {
			t.Errorf("example %q: %v", ex, err)
			continue
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("example %q: %v", ex, err)
		}
	}
}

// TestComponentNames holds the registry table to the invariants a spec
// relies on: every name is non-empty, free of the grammar's characters
// and unique across both roles, and every component has exactly one
// role.
func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range components {
		if d.name == "" || strings.ContainsAny(d.name, "+:,= \t") {
			t.Errorf("component name %q is empty or contains grammar characters", d.name)
		}
		if seen[d.name] {
			t.Errorf("component name %q appears twice", d.name)
		}
		seen[d.name] = true
		if (d.buildDetector == nil) == (d.buildClassifier == nil) {
			t.Errorf("component %q must be exactly one of detector and classifier", d.name)
		}
	}
	if len(detectors)+len(classifiers) != len(components) {
		t.Errorf("role maps hold %d+%d components, table has %d", len(detectors), len(classifiers), len(components))
	}
	// The examples, List and every error listing read sortedNames: in
	// lexical order whatever order a map hands the names out in.
	for range 32 {
		if names := sortedNames(classifiers); !sort.StringsAreSorted(names) {
			t.Fatalf("sortedNames = %v", names)
		}
	}
}
