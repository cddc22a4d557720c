package scheme

import (
	"fmt"
	"strings"
)

// Parse parses a scheme spec:
//
//	spec      := component [ "+" component ]
//	component := name [ ":" param { "," param } ]
//	param     := key "=" value
//
// The two-component form is detector+classifier. A single component
// names either side and selects the paper default for the other: a lone
// detector gets the single-feature classifier, a lone classifier gets
// the β=0.8 constant-load detector. Values may not contain "+", ",",
// ":" or "="; write exponents without a plus sign ("2e6").
//
// Parse validates the grammar, that each name is registered in the
// right role, and that every parameter key is one the component
// declares; parameter *values* are checked by Validate/Config, which
// actually build the components. Errors name what is registered, so a
// CLI can print them verbatim as help text.
func Parse(spec string) (*Spec, error) {
	parts := strings.Split(spec, "+")
	switch len(parts) {
	case 1:
		comp, err := parseComponent(parts[0])
		if err != nil {
			return nil, specErr(spec, err)
		}
		if def, ok := detectors[comp.Name]; ok {
			if err := def.knownKeys(comp.Params); err != nil {
				return nil, specErr(spec, err)
			}
			return &Spec{Detector: comp, Classifier: Component{Name: "single"}, Alpha: DefaultAlpha}, nil
		}
		if def, ok := classifiers[comp.Name]; ok {
			if err := def.knownKeys(comp.Params); err != nil {
				return nil, specErr(spec, err)
			}
			return &Spec{Detector: Component{Name: "load"}, Classifier: comp, Alpha: DefaultAlpha}, nil
		}
		return nil, specErr(spec, fmt.Errorf("unknown component %q; registered\n%s", comp.Name, List()))
	case 2:
		det, err := parseComponent(parts[0])
		if err != nil {
			return nil, specErr(spec, err)
		}
		cls, err := parseComponent(parts[1])
		if err != nil {
			return nil, specErr(spec, err)
		}
		dd, ok := detectors[det.Name]
		if !ok {
			if _, isCls := classifiers[det.Name]; isCls {
				return nil, specErr(spec, fmt.Errorf("%q is a classifier, but appears in the detector position; registered\n%s", det.Name, List()))
			}
			return nil, specErr(spec, fmt.Errorf("unknown detector %q; registered\n%s", det.Name, List()))
		}
		cd, ok := classifiers[cls.Name]
		if !ok {
			if _, isDet := detectors[cls.Name]; isDet {
				return nil, specErr(spec, fmt.Errorf("%q is a detector, but appears in the classifier position; registered\n%s", cls.Name, List()))
			}
			return nil, specErr(spec, fmt.Errorf("unknown classifier %q; registered\n%s", cls.Name, List()))
		}
		if err := dd.knownKeys(det.Params); err != nil {
			return nil, specErr(spec, err)
		}
		if err := cd.knownKeys(cls.Params); err != nil {
			return nil, specErr(spec, err)
		}
		return &Spec{Detector: det, Classifier: cls, Alpha: DefaultAlpha}, nil
	default:
		return nil, specErr(spec, fmt.Errorf("want detector[:k=v,...]+classifier[:k=v,...], got %d components", len(parts)))
	}
}

func specErr(spec string, err error) error {
	return fmt.Errorf("scheme: spec %q: %w", spec, err)
}

// ParseValidated is Parse followed by Validate — the one-call form the
// CLIs use so grammar, name and parameter-value errors all surface as
// usage errors before any work starts.
func ParseValidated(spec string) (*Spec, error) {
	sp, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// parseComponent parses "name[:k=v,...]" with surrounding spaces
// tolerated around the name, keys and values.
func parseComponent(s string) (Component, error) {
	name, rest, hasParams := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Component{}, fmt.Errorf("empty component name")
	}
	c := Component{Name: name}
	if !hasParams {
		return c, nil
	}
	if strings.TrimSpace(rest) == "" {
		return Component{}, fmt.Errorf("%s: empty parameter list after %q", name, ":")
	}
	c.Params = Params{}
	for _, kv := range strings.Split(rest, ",") {
		key, value, ok := strings.Cut(kv, "=")
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		if !ok || key == "" {
			return Component{}, fmt.Errorf("%s: parameter %q is not key=value", name, strings.TrimSpace(kv))
		}
		if value == "" {
			return Component{}, fmt.Errorf("%s: parameter %q has an empty value", name, key)
		}
		if i := strings.IndexAny(value, ":="); i >= 0 {
			return Component{}, fmt.Errorf("%s: parameter %s=%q: value contains %q", name, key, value, string(value[i]))
		}
		if _, dup := c.Params[key]; dup {
			return Component{}, fmt.Errorf("%s: parameter %q set twice", name, key)
		}
		c.Params[key] = value
	}
	return c, nil
}
