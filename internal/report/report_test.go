package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableAlignment(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("short", 1)
	tab.AddRow("a-much-longer-name", 23456)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header, rule, 2 rows)", len(lines))
	}
	// The value column must start at the same offset in every row.
	idx := strings.Index(lines[0], "value")
	if idx < 0 {
		t.Fatal("header lost")
	}
	if !strings.HasPrefix(lines[2][idx:], "1") {
		t.Errorf("row 1 misaligned: %q", lines[2])
	}
	if !strings.HasPrefix(lines[3][idx:], "23456") {
		t.Errorf("row 2 misaligned: %q", lines[3])
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("rule row = %q", lines[1])
	}
}

func TestTableCellFormats(t *testing.T) {
	tab := NewTable("c")
	tab.AddRow(1.23456789)
	tab.AddRow("verbatim")
	tab.AddRow(42)
	out := tab.String()
	if !strings.Contains(out, "1.235") {
		t.Errorf("float not %%.4g formatted: %q", out)
	}
	if !strings.Contains(out, "verbatim") || !strings.Contains(out, "42") {
		t.Errorf("cells lost: %q", out)
	}
	// Header and rule, then one line per data row.
	if rows := len(strings.Split(strings.TrimSuffix(out, "\n"), "\n")) - 2; rows != 3 {
		t.Errorf("rendered %d data rows, want 3: %q", rows, out)
	}
}

func TestTableNoTrailingSpaces(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x", "y")
	for _, line := range strings.Split(tab.String(), "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Errorf("trailing spaces in %q", line)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if utf8.RuneCountInString(s) != 4 {
		t.Errorf("rune count = %d, want 4", utf8.RuneCountInString(s))
	}
	// Monotone input -> monotone glyph levels.
	runes := []rune(s)
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("glyphs not monotone for monotone input: %q", s)
		}
	}
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("extremes wrong: %q", s)
	}
}

func TestSparklineConstantAndNaN(t *testing.T) {
	s := Sparkline([]float64{5, 5, 5})
	if utf8.RuneCountInString(s) != 3 {
		t.Errorf("constant series sparkline = %q", s)
	}
	s = Sparkline([]float64{math.NaN(), 1, math.NaN()})
	if !strings.HasPrefix(s, " ") {
		t.Errorf("NaN not rendered as space: %q", s)
	}
	s = Sparkline([]float64{math.NaN(), math.NaN()})
	if s != "  " {
		t.Errorf("all-NaN = %q", s)
	}
}

func TestSparklineEdgeCases(t *testing.T) {
	// Single point: constant series, one glyph, no divide-by-zero.
	if s := Sparkline([]float64{3.5}); utf8.RuneCountInString(s) != 1 {
		t.Errorf("single point = %q, want one glyph", s)
	}
	// ±Inf renders as space and must not stretch the scale: the finite
	// values still span the full glyph range.
	s := Sparkline([]float64{math.Inf(1), 0, 10, math.Inf(-1)})
	runes := []rune(s)
	if len(runes) != 4 || runes[0] != ' ' || runes[3] != ' ' {
		t.Errorf("Inf not rendered as space: %q", s)
	}
	if runes[1] != '▁' || runes[2] != '█' {
		t.Errorf("finite values not scaled to their own range: %q", s)
	}
	// All non-finite: all spaces.
	if s := Sparkline([]float64{math.Inf(1), math.NaN()}); s != "  " {
		t.Errorf("all-non-finite = %q", s)
	}
}

func TestChartBasics(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, ChartConfig{Width: 40, Height: 8, Title: "demo", XLabel: "time"},
		Series{Label: "up", Values: []float64{1, 2, 3, 4, 5}},
		Series{Label: "down", Values: []float64{5, 4, 3, 2, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "time") {
		t.Error("title/xlabel missing")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "+ down") {
		t.Errorf("legend missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	plotLines := 0
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotLines++
		}
	}
	if plotLines != 8 {
		t.Errorf("plot rows = %d, want 8", plotLines)
	}
	// Marks of both series must appear in the plot area.
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("series marks missing from plot")
	}
}

func TestChartLogY(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, ChartConfig{Width: 20, Height: 5, LogY: true},
		Series{Label: "counts", Values: []float64{1, 10, 100, 1000, 0}}, // the 0 must be skipped
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1e+03") && !strings.Contains(buf.String(), "1000") {
		t.Errorf("log axis label missing:\n%s", buf.String())
	}
}

func TestChartEmptySeries(t *testing.T) {
	var buf bytes.Buffer
	if err := Chart(&buf, ChartConfig{}, Series{Label: "none"}); err != nil {
		t.Fatalf("empty series: %v", err)
	}
	buf.Reset()
	// No series at all: an empty grid with the fallback 0..1 axis.
	if err := Chart(&buf, ChartConfig{Width: 10, Height: 3}); err != nil {
		t.Fatalf("no series: %v", err)
	}
	if !strings.Contains(buf.String(), "|") {
		t.Error("no-series chart lost its plot rows")
	}
}

func TestChartSinglePoint(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, ChartConfig{Width: 10, Height: 4},
		Series{Label: "one", Values: []float64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Errorf("single point not plotted:\n%s", buf.String())
	}
}

func TestChartNaNInf(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, ChartConfig{Width: 8, Height: 4},
		Series{Label: "noisy", Values: []float64{1, math.NaN(), math.Inf(1), 2, math.Inf(-1), 3}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Finite values still plot, and the axis range is taken from them
	// alone — an Inf leaking into the scale would print an Inf label.
	if !strings.Contains(out, "*") {
		t.Errorf("finite values not plotted:\n%s", out)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("non-finite leaked into the axis:\n%s", out)
	}
}

func TestChartAllNonFinite(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, ChartConfig{Width: 8, Height: 4},
		Series{Label: "void", Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "|") && strings.Contains(line, "*") {
			t.Errorf("non-finite values plotted:\n%s", buf.String())
		}
	}
}

func TestChartFixedRange(t *testing.T) {
	var buf bytes.Buffer
	err := Chart(&buf, ChartConfig{Width: 10, Height: 4, YMin: 0, YMax: 1},
		Series{Label: "frac", Values: []float64{0.5, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1") {
		t.Errorf("fixed max not on axis:\n%s", buf.String())
	}
}

func TestWriteCSVSeries(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSVSeries(&buf, "interval",
		Series{Label: "a", Values: []float64{1, 2, 3}},
		Series{Label: "b", Values: []float64{4.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if lines[0] != "interval,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,4.5" {
		t.Errorf("row 0 = %q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Errorf("row 1 = %q (short series must pad)", lines[2])
	}
}

func TestIntsToFloats(t *testing.T) {
	got := IntsToFloats([]int{1, -2, 3})
	if len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
}
