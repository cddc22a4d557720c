package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/report/reporttest"
)

// lintErr runs LintExposition over a page and returns the error.
func lintErr(t *testing.T, page string) error {
	t.Helper()
	return reporttest.LintExposition(strings.NewReader(page))
}

func TestLintAcceptsWriterOutput(t *testing.T) {
	// A page produced by MetricsWriter itself — counters, gauges with
	// labels, and a two-series histogram — must pass.
	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	m.Family("d_datagrams_total", "Datagrams.", "counter")
	m.Sample("d_datagrams_total", nil, 42)
	m.Family("d_load_bps", "Load.", "gauge")
	m.Sample("d_load_bps", []Label{{"link", "a@0"}}, 1.5e6)
	m.Sample("d_load_bps", []Label{{"link", "b@1"}}, 2.5)
	m.Family("d_step_seconds", "Step latency.", "histogram")
	bounds := []float64{0.001, 0.01, 0.1}
	m.Histogram("d_step_seconds", []Label{{"link", "a@0"}}, bounds, []uint64{3, 2, 0, 1}, 0.08)
	m.Histogram("d_step_seconds", []Label{{"link", "b@1"}}, bounds, []uint64{0, 0, 0, 0}, 0)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := reporttest.LintExposition(&buf); err != nil {
		t.Errorf("writer output failed lint: %v", err)
	}
}

func TestLintViolations(t *testing.T) {
	cases := []struct {
		name, page, wantSub string
	}{
		{"orphan sample", "x_total 3\n", "before any family"},
		{"sample from other family",
			"# HELP a_total h\n# TYPE a_total counter\nb_total 1\n",
			"not preceded by its family"},
		{"duplicate family",
			"# TYPE a_total counter\na_total 1\n# TYPE a_total counter\n",
			"declared twice"},
		{"bad value",
			"# TYPE a_total counter\na_total pony\n",
			"unparsable value"},
		{"bucket counts decrease",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"decreased"},
		{"le not increasing",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n",
			"not increasing"},
		{"missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"no +Inf bucket"},
		{"count disagrees with +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 9\n",
			"want the +Inf bucket"},
		{"missing le",
			"# TYPE h histogram\nh_bucket{link=\"a\"} 1\n",
			"missing le"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := lintErr(t, tc.page)
			if err == nil {
				t.Fatalf("lint accepted invalid page:\n%s", tc.page)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestLintMultiSeriesHistogram(t *testing.T) {
	// Two label sets back to back; the second starting implies the first
	// completed. A second set starting without the first's +Inf fails.
	ok := `# TYPE h histogram
h_bucket{link="a",le="1"} 1
h_bucket{link="a",le="+Inf"} 2
h_bucket{link="b",le="1"} 0
h_bucket{link="b",le="+Inf"} 0
h_sum{link="b"} 0
h_count{link="b"} 0
`
	if err := lintErr(t, ok); err != nil {
		t.Errorf("valid two-series histogram rejected: %v", err)
	}
	bad := `# TYPE h histogram
h_bucket{link="a",le="1"} 1
h_bucket{link="b",le="1"} 0
h_bucket{link="b",le="+Inf"} 0
`
	if err := lintErr(t, bad); err == nil || !strings.Contains(err.Error(), "+Inf") {
		t.Errorf("truncated first series accepted (err=%v)", err)
	}
}
