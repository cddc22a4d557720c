// Package scheme is the registry of named classification schemes: every
// detector and classifier the repository implements — the paper's
// ("aest", "load", "latent", "single") and the baselines ("fixed",
// "topk", "misragries", "spacesaving") — registered under a short name
// with typed, defaulted parameters, plus the small spec grammar
//
//	detector[:key=value,...]+classifier[:key=value,...]
//
// that names one scheme end to end: "load:beta=0.8+latent:window=12" is
// the paper's headline scheme, "aest" alone is the aest detector with
// the single-feature classifier, "topk:k=50" alone is the top-K baseline
// under the default detector. A parameter is registered only where a
// caller sets it (beta, theta, window, k); everything else about a
// component is one configuration — aest's 0.95 fallback quantile, the
// sketches' 1/(k+1) cut, latent heat's eviction after 4W idle
// intervals. Beside its components a Spec carries the EWMA weight
// Alpha, which Parse sets to the paper's 0.5 and Config holds to
// [0,1). A parsed Spec compiles to a core.Config factory that builds
// fresh detector/classifier instances on every call, satisfying the
// engine's fresh-instances-per-link determinism contract, so any
// registered scheme runs unmodified through
// engine.Run, engine.RunMatrix, engine.RunStreaming, engine.LivePipeline,
// the experiments harnesses and every CLI that takes a -scheme flag.
//
// The registry is the single source of truth for help and error text:
// List enumerates every component with its parameters, so adding a
// scheme (one entry in the components table) automatically surfaces it
// in each CLI's usage string and in parse errors.
package scheme

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
)

// Params carries one component's explicitly-set parameters as raw
// key=value strings; typed accessors apply defaults and report value
// errors.
type Params map[string]string

// Float returns the parameter as a float64, or def when unset.
func (p Params) Float(key string, def float64) (float64, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: not a number", key, raw)
	}
	return v, nil
}

// Int returns the parameter as an int, or def when unset.
func (p Params) Int(key string, def int) (int, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: not an integer", key, raw)
	}
	return v, nil
}

// Has reports whether the parameter was explicitly set.
func (p Params) Has(key string) bool { _, ok := p[key]; return ok }

// clone returns an independent copy of the parameter set.
func (p Params) clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p { // order-free: a copy holds every pair whatever the order
		out[k] = v
	}
	return out
}

// ParamDef documents one accepted parameter of a registered component.
type ParamDef struct {
	// Key is the parameter name in the spec grammar.
	Key string
	// Default is the display form of the value used when the parameter
	// is omitted; empty means the parameter is required.
	Default string
	// Doc is a one-line description.
	Doc string
}

// componentDef is one registered detector or classifier.
type componentDef struct {
	name   string
	doc    string
	params []ParamDef
	// example is a runnable spec fragment with any required parameters
	// filled in; the registry-driven end-to-end tests enumerate it.
	example string
	// Exactly one of the two builders is set: it gives the component's
	// role.
	buildDetector   func(Params) (core.Detector, error)
	buildClassifier func(Params) (core.Classifier, error)
}

// detectors and classifiers index components by name, one map per
// role.
var detectors, classifiers = byRole()

func byRole() (det, cls map[string]*componentDef) {
	det, cls = map[string]*componentDef{}, map[string]*componentDef{}
	for i := range components {
		if d := &components[i]; d.buildDetector != nil {
			det[d.name] = d
		} else {
			cls[d.name] = d
		}
	}
	return det, cls
}

// knownKeys validates that every explicitly-set parameter is declared by
// the component. Of several undeclared keys it names the first in
// lexical order, so the error is the same from run to run.
func (d *componentDef) knownKeys(p Params) error {
	set := make([]string, 0, len(p))
	for key := range p {
		set = append(set, key)
	}
	sort.Strings(set)
	for _, key := range set {
		ok := false
		for _, def := range d.params {
			if def.Key == key {
				ok = true
				break
			}
		}
		if !ok {
			keys := make([]string, len(d.params))
			for i, def := range d.params {
				keys[i] = def.Key
			}
			if len(keys) == 0 {
				return fmt.Errorf("%s takes no parameters, got %q", d.name, key)
			}
			return fmt.Errorf("%s has no parameter %q (accepts %s)", d.name, key, strings.Join(keys, ", "))
		}
	}
	return nil
}

// sortedNames returns a registry's names in lexical order.
func sortedNames(m map[string]*componentDef) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DetectorExamples returns one runnable spec fragment per registered
// detector, sorted by name.
func DetectorExamples() []string { return examples(detectors) }

// ClassifierExamples returns one runnable spec fragment per registered
// classifier, sorted by name.
func ClassifierExamples() []string { return examples(classifiers) }

func examples(m map[string]*componentDef) []string {
	out := make([]string, 0, len(m))
	for _, n := range sortedNames(m) {
		out = append(out, m[n].example)
	}
	return out
}

// List returns a human-readable enumeration of every registered
// detector and classifier with parameters and defaults — the text CLIs
// embed in -scheme help and parse errors, regenerated from the registry
// so it can never rot as schemes are added.
func List() string {
	var b strings.Builder
	listGroup(&b, "detectors", detectors)
	listGroup(&b, "classifiers", classifiers)
	return b.String()
}

func listGroup(b *strings.Builder, title string, m map[string]*componentDef) {
	fmt.Fprintf(b, "%s:\n", title)
	names := sortedNames(m)
	syntaxes := make([]string, len(names))
	width := 0
	for i, n := range names {
		syntaxes[i] = m[n].syntax()
		if len(syntaxes[i]) > width {
			width = len(syntaxes[i])
		}
	}
	for i, n := range names {
		fmt.Fprintf(b, "  %-*s  %s\n", width, syntaxes[i], m[n].doc)
	}
}

// syntax renders the component's spec fragment with its parameters:
// "load[:beta=0.8]", "fixed:theta=<bit/s>".
func (d *componentDef) syntax() string {
	if len(d.params) == 0 {
		return d.name
	}
	var required, optional []string
	for _, p := range d.params {
		if p.Default == "" {
			required = append(required, p.Key+"=<"+p.Doc+">")
		} else {
			optional = append(optional, p.Key+"="+p.Default)
		}
	}
	s := d.name
	switch {
	case len(required) > 0 && len(optional) > 0:
		s += ":" + strings.Join(required, ",") + "[," + strings.Join(optional, ",") + "]"
	case len(required) > 0:
		s += ":" + strings.Join(required, ",")
	default:
		s += "[:" + strings.Join(optional, ",") + "]"
	}
	return s
}

// FlagUsage returns the usage string for a CLI -scheme flag: the spec
// grammar in one line plus the registry listing.
func FlagUsage() string {
	return "classification scheme: detector[:k=v,...]+classifier[:k=v,...];\n" +
		"a single component selects the paper default for the other side\n" + List()
}

// components is the registry: every detector (buildDetector set) and
// classifier (buildClassifier set) the repository implements. Names are
// unique across both roles, so a single-component spec resolves
// unambiguously, and contain none of the spec grammar's characters;
// TestComponentNames holds the table to both.
var components = []componentDef{
	{
		name: "load", example: "load",
		doc:    "β-constant-load threshold: flows above it carry fraction beta of traffic",
		params: []ParamDef{{Key: "beta", Default: "0.8", Doc: "target elephant load fraction in (0,1)"}},
		buildDetector: func(p Params) (core.Detector, error) {
			beta, err := p.Float("beta", 0.8)
			if err != nil {
				return nil, err
			}
			return core.NewConstantLoadDetector(beta)
		},
	},
	{
		name: "aest", example: "aest",
		doc: "aest heavy-tail onset threshold (Crovella–Taqqu scaling estimator)",
		buildDetector: func(Params) (core.Detector, error) {
			return core.NewAestDetector(), nil
		},
	},
	{
		name: "fixed", example: "fixed:theta=150000",
		doc:    "fixed operator-configured threshold — the static baseline",
		params: []ParamDef{{Key: "theta", Default: "", Doc: "threshold in bit/s"}},
		buildDetector: func(p Params) (core.Detector, error) {
			if !p.Has("theta") {
				return nil, fmt.Errorf("required parameter theta (bit/s) missing")
			}
			theta, err := p.Float("theta", 0)
			if err != nil {
				return nil, err
			}
			return baseline.NewFixedThresholdDetector(theta)
		},
	},
	{
		name: "single", example: "single",
		doc: "single-feature: flow j is an elephant iff x_j(t) > θ̂(t)",
		buildClassifier: func(Params) (core.Classifier, error) {
			return &core.SingleFeatureClassifier{}, nil
		},
	},
	{
		name: "latent", example: "latent",
		doc:    "two-feature latent heat: elephant iff Σ over window of (x_j − θ̂) > 0",
		params: []ParamDef{{Key: "window", Default: "12", Doc: "lookback W in intervals"}},
		buildClassifier: func(p Params) (core.Classifier, error) {
			w, err := p.Int("window", DefaultLatentWindow)
			if err != nil {
				return nil, err
			}
			return core.NewLatentHeatClassifier(w)
		},
	},
	{
		name: "topk", example: "topk",
		doc:    "top-K talkers per interval, threshold ignored — the monitoring-console baseline",
		params: []ParamDef{{Key: "k", Default: "50", Doc: "flows classified per interval"}},
		buildClassifier: func(p Params) (core.Classifier, error) {
			k, err := p.Int("k", 50)
			if err != nil {
				return nil, err
			}
			return baseline.NewTopKClassifier(k)
		},
	},
	{
		name: "misragries", example: "misragries",
		doc:    "per-interval Misra–Gries heavy hitters (k counters, underestimates)",
		params: []ParamDef{{Key: "k", Default: "50", Doc: "sketch counters"}},
		buildClassifier: func(p Params) (core.Classifier, error) {
			return sketchClassifier(p, baseline.NewMisraGriesClassifier)
		},
	},
	{
		name: "spacesaving", example: "spacesaving",
		doc:    "per-interval Space-Saving heavy hitters (k counters, overestimates)",
		params: []ParamDef{{Key: "k", Default: "50", Doc: "sketch counters"}},
		buildClassifier: func(p Params) (core.Classifier, error) {
			return sketchClassifier(p, baseline.NewSpaceSavingClassifier)
		},
	},
}

// sketchClassifier builds either sketch baseline from its k parameter.
func sketchClassifier(p Params, mk func(int) (*baseline.SketchClassifier, error)) (core.Classifier, error) {
	k, err := p.Int("k", 50)
	if err != nil {
		return nil, err
	}
	return mk(k)
}
