// Package reporttest holds what only tests need of the report layer:
// the exposition-format lint the obs, serve and report tests run over
// every metrics page they render or scrape. It imports nothing of the
// program, so a test inside package report can use it too.
package reporttest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LintExposition validates a Prometheus text exposition page against
// the subset of the format the daemon emits. It enforces what a scraper relies on and what
// hand-rolled renderers most easily get wrong:
//
//   - every sample belongs to the family most recently declared by a
//     # TYPE line (metadata precedes its samples, families contiguous);
//     histogram samples may use the family's _bucket/_sum/_count
//     suffixes
//   - no family is declared twice
//   - every sample value parses as a float
//   - histogram buckets are well-formed per series: le boundaries
//     strictly increasing, cumulative counts non-decreasing, a +Inf
//     bucket present, and _count equal to the +Inf bucket
//
// The first violation is returned with its line number; nil means the
// page passed.
func LintExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	l := &lintState{declared: make(map[string]bool)}
	line := 0
	for sc.Scan() {
		line++
		if err := l.feed(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return l.finishHistogramSeries()
}

type lintState struct {
	declared map[string]bool // family -> TYPE seen
	family   string          // current family (last # TYPE)
	typ      string          // current family's type

	// In-flight histogram series (one label set of the current family):
	// buckets must arrive contiguously, le ascending, counts monotone.
	histActive bool
	histKey    string // label signature minus le
	histLastLe float64
	histLastV  float64
	histInf    float64
	histInfSet bool
}

func (l *lintState) feed(s string) error {
	switch {
	case strings.TrimSpace(s) == "":
		return nil
	case strings.HasPrefix(s, "# HELP "):
		return nil
	case strings.HasPrefix(s, "# TYPE "):
		fields := strings.Fields(s)
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", s)
		}
		name, typ := fields[2], fields[3]
		if l.declared[name] {
			return fmt.Errorf("family %q declared twice", name)
		}
		if err := l.finishHistogramSeries(); err != nil {
			return err
		}
		l.declared[name] = true
		l.family, l.typ = name, typ
		return nil
	case strings.HasPrefix(s, "#"):
		return nil // comment
	}
	return l.sample(s)
}

// sample validates one sample line against the current family.
func (l *lintState) sample(s string) error {
	name := s
	if i := strings.IndexAny(s, "{ "); i >= 0 {
		name = s[:i]
	}
	rest := s[len(name):]
	labels := ""
	if strings.HasPrefix(rest, "{") {
		end := labelsEnd(rest)
		if end < 0 {
			return fmt.Errorf("unterminated label set in %q", s)
		}
		labels = rest[1 : end-1]
		rest = rest[end:]
	}
	val, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return fmt.Errorf("sample %s: unparsable value %q", name, strings.TrimSpace(rest))
	}
	if l.family == "" {
		return fmt.Errorf("sample %s before any family declaration", name)
	}
	suffix := ""
	base := name
	if l.typ == "histogram" {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && strings.TrimSuffix(name, suf) == l.family {
				base, suffix = l.family, suf
				break
			}
		}
	}
	if base != l.family {
		return fmt.Errorf("sample %s not preceded by its family (current family %q)", name, l.family)
	}
	if l.typ != "histogram" {
		return nil
	}
	switch suffix {
	case "_bucket":
		return l.bucket(name, labels, val)
	case "_sum":
		return nil
	case "_count":
		if l.histInfSet && val != l.histInf {
			return fmt.Errorf("%s = %v, want the +Inf bucket value %v", name, val, l.histInf)
		}
		return l.finishHistogramSeries()
	default:
		return fmt.Errorf("histogram family %q has plain sample %s (want _bucket/_sum/_count)", l.family, name)
	}
}

// bucket folds one _bucket sample into the in-flight series checks.
func (l *lintState) bucket(name, labels string, val float64) error {
	key, le, ok := splitLe(labels)
	if !ok {
		return fmt.Errorf("%s missing le label", name)
	}
	var leVal float64
	if le == "+Inf" {
		leVal = 0 // unused; flagged via histInfSet
	} else {
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("%s: unparsable le %q", name, le)
		}
		leVal = v
	}
	if !l.histActive || key != l.histKey {
		// New label set: the previous one must have completed with +Inf.
		if err := l.finishHistogramSeries(); err != nil {
			return err
		}
		l.histActive, l.histKey = true, key
	} else {
		if l.histInfSet {
			return fmt.Errorf("%s: bucket after the +Inf bucket", name)
		}
		if le != "+Inf" && leVal <= l.histLastLe {
			return fmt.Errorf("%s: le %v not increasing (previous %v)", name, leVal, l.histLastLe)
		}
		if val < l.histLastV {
			return fmt.Errorf("%s: cumulative bucket count %v decreased (previous %v)", name, val, l.histLastV)
		}
	}
	if le == "+Inf" {
		l.histInf, l.histInfSet = val, true
	} else {
		l.histLastLe = leVal
	}
	l.histLastV = val
	return nil
}

// finishHistogramSeries closes the in-flight bucket series, requiring
// its +Inf bucket to have arrived.
func (l *lintState) finishHistogramSeries() error {
	if l.histActive && !l.histInfSet {
		return fmt.Errorf("histogram series %s{%s} has no +Inf bucket", l.family, l.histKey)
	}
	l.histActive, l.histKey = false, ""
	l.histLastLe, l.histLastV, l.histInf = 0, 0, 0
	l.histInfSet = false
	return nil
}

// labelsEnd returns the index just past the closing '}' of a label set
// starting at s[0] == '{', honouring quoted values with escapes; -1 when
// unterminated.
func labelsEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i + 1
		}
	}
	return -1
}

// splitLe extracts the le label from a rendered label list, returning
// the list with le removed (the series grouping key) and the le value.
func splitLe(labels string) (key, le string, ok bool) {
	rest := labels
	var parts []string
	for rest != "" {
		eq := strings.Index(rest, "=\"")
		if eq < 0 {
			break
		}
		name := rest[:eq]
		val := rest[eq+2:]
		end := 0
		for end < len(val) {
			if val[end] == '\\' {
				end += 2
				continue
			}
			if val[end] == '"' {
				break
			}
			end++
		}
		if end >= len(val) {
			break
		}
		pair := rest[:eq+2+end+1]
		if name == "le" {
			le, ok = val[:end], true
		} else {
			parts = append(parts, pair)
		}
		rest = val[end+1:]
		rest = strings.TrimPrefix(rest, ",")
	}
	return strings.Join(parts, ","), le, ok
}
