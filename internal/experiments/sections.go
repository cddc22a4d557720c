package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scheme"
)

// Section is one block of the reproduction record.
type Section struct {
	// Key selects the section on the command line (-only).
	Key string
	// Title heads the block and states the paper's claim beside it.
	Title string
	// Specs are the schemes whose classification of the two evaluation
	// links the section reads; sections naming the same spec share one
	// classification. Nil for sections that classify their own traffic.
	Specs []*scheme.Spec
	// render prints the block from the Specs' runs, link-major.
	render func(r *Record, runs []Run) error
}

// Sections returns the record's blocks in print order. user is the
// scheme the interval and sampling sections run (-scheme).
func Sections(user *scheme.Spec) []Section {
	latent, single := figureSpecs("latent"), figureSpecs("single")
	paper := []*scheme.Spec{PaperSpec()}
	ablation := func(sw Sweep) func(*Record, []Run) error {
		return func(r *Record, _ []Run) error { return r.ablation(sw) }
	}
	return []Section{
		{"fig1a", "Figure 1(a): number of elephants per interval (latent heat on)", latent, (*Record).fig1a},
		{"fig1b", "Figure 1(b): fraction of traffic apportioned to elephants", latent, (*Record).fig1b},
		{"fig1c", "Figure 1(c): average holding time in the elephant state (busy window)", latent, (*Record).fig1c},
		{"single", "Section II: single-feature volatility (paper: 20-40 min holding, >1000 one-interval flows)", single, (*Record).volatility},
		{"two", "Section III: two-feature stability (paper: ~2 h holding, ~50 one-interval flows, ~600/~500 elephants, ~0.6 load)", latent, (*Record).volatility},
		{"prefix", "Section III: prefix-length characteristics (paper: elephants span /12-/26; ~100 active /8s, ~3 elephant /8s)", latent, (*Record).prefix},
		{"interval", "Section II: measurement-interval sensitivity (paper: similar results at 1, 5, 10 min)", nil,
			func(r *Record, _ []Run) error { return r.interval(user) }},
		{"alpha", "Ablation: EWMA weight alpha (paper: 0.5 'sufficiently smooth')", nil, ablation(AlphaSweep)},
		{"window", "Ablation: latent-heat window (paper: 12 slots = 1 h)", nil, ablation(WindowSweep)},
		{"beta", "Ablation: constant-load beta (paper: 0.8)", nil, ablation(BetaSweep)},
		{"baseline", "Extension: baseline comparison (what adaptive threshold + latent heat buy)", paper, (*Record).baseline},
		{"concentration", "Premise: elephants-and-mice concentration (intro: few flows carry most traffic)", nil, (*Record).concentration},
		{"sampling", "Extension: 1-in-N packet sampling impact (sampled-NetFlow deployment)", []*scheme.Spec{user}, (*Record).sampling},
	}
}

// SectionKeys lists the section keys in print order, for flag help.
func SectionKeys() []string {
	var keys []string
	for _, s := range Sections(nil) {
		keys = append(keys, s.Key)
	}
	return keys
}

// SelectSections returns the sections named by the comma-separated
// list only, in print order; an empty list selects them all. An unknown
// key is an error that lists the valid ones.
func SelectSections(user *scheme.Spec, only string) ([]Section, error) {
	all := Sections(user)
	if only == "" {
		return all, nil
	}
	keys := SectionKeys()
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(keys, k) {
			return nil, fmt.Errorf("unknown section %q (valid: %s)", k, strings.Join(keys, ","))
		}
		want[k] = true
	}
	return slices.DeleteFunc(all, func(s Section) bool { return !want[s.Key] }), nil
}

// Record is one printing of the reproduction record: the links it is
// computed on and where the tables, charts and CSVs go.
type Record struct {
	Links *LinkSet
	// W receives the tables and charts.
	W io.Writer
	// Charts enables the ASCII charts under the figure tables.
	Charts bool
	// CSVDir, when non-empty, receives each figure's series as a CSV
	// file (created if missing).
	CSVDir string
}

// Write prints the sections in order. The union of their Specs is
// classified on both links first, in one Classify call, so sections
// reading the same (link, scheme) cell share it — Figure 1's panels,
// the two-feature and prefix-length tables, and the headline cell the
// baseline and sampling extensions compare against.
func (r *Record) Write(sections []Section) error {
	var specs []*scheme.Spec
	seen := map[string]bool{}
	for _, s := range sections {
		for _, sp := range s.Specs {
			if id := engine.MatrixID("", sp); !seen[id] {
				seen[id] = true
				specs = append(specs, sp)
			}
		}
	}
	links := r.Links.Links()
	cells := map[string]Run{}
	if len(specs) > 0 {
		runs, err := Classify(links, specs)
		if err != nil {
			return err
		}
		for _, run := range runs {
			cells[engine.MatrixID(run.Link, run.Scheme)] = run
		}
	}
	for _, s := range sections {
		var runs []Run
		for _, l := range links {
			for _, sp := range s.Specs {
				runs = append(runs, cells[engine.MatrixID(l.ID, sp)])
			}
		}
		fmt.Fprintln(r.W, "== "+s.Title)
		if err := s.render(r, runs); err != nil {
			return err
		}
		fmt.Fprintln(r.W)
	}
	return nil
}

func (r *Record) fig1a(runs []Run) error {
	return r.figure(Fig1a(runs), 0, "fig1a.csv",
		report.ChartConfig{Title: "Fig 1(a) — elephants per interval", XLabel: "interval (5 min slots)"})
}

func (r *Record) fig1b(runs []Run) error {
	return r.figure(Fig1b(runs), 3, "fig1b.csv",
		report.ChartConfig{Title: "Fig 1(b) — elephant load fraction", YMin: 0, YMax: 1, XLabel: "interval (5 min slots)"})
}

// figure prints a per-interval figure: each series' mean, range and
// sparkline at the given precision, then the chart and the CSV.
func (r *Record) figure(series []report.Series, prec int, csv string, cfg report.ChartConfig) error {
	tab := report.NewTable("series", "mean", "min", "max", "spark")
	for _, s := range series {
		tab.AddRow(s.Label,
			fmt.Sprintf("%.*f", prec, analysis.MeanFloat(s.Values)),
			fmt.Sprintf("%.*f", prec, slices.Min(s.Values)),
			fmt.Sprintf("%.*f", prec, slices.Max(s.Values)),
			report.Sparkline(s.Values))
	}
	fmt.Fprint(r.W, tab.String())
	return r.chart(cfg, csv, "interval", series)
}

// chart draws the series (when charts are on) and writes their CSV
// (when a directory is set).
func (r *Record) chart(cfg report.ChartConfig, csv, idx string, series []report.Series) error {
	if r.Charts {
		_ = report.Chart(r.W, cfg, series...)
	}
	if r.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.CSVDir, csv))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteCSVSeries(f, idx, series...); err != nil {
		return err
	}
	return f.Close()
}

// holding renders a mean holding time in slots and wall-clock minutes.
func holding(s analysis.Summary) string {
	return fmt.Sprintf("%.1f slots (%v)", s.Holding.MeanHolding, s.MeanHolding.Round(time.Minute))
}

func (r *Record) fig1c(runs []Run) error {
	rows, err := summarizeRuns(runs)
	if err != nil {
		return err
	}
	tab := report.NewTable("series", "flows", "mean holding", "1-interval flows")
	for _, row := range rows {
		tab.AddRow(row.Label, row.Holding.Flows, holding(row.Summary), row.Holding.SingleIntervalFlows)
	}
	fmt.Fprint(r.W, tab.String())
	return r.chart(report.ChartConfig{Title: "Fig 1(c) — holding-time histogram (log y)", LogY: true, XLabel: "average holding time (intervals)"},
		"fig1c.csv", "holding_intervals", Fig1c(rows))
}

func (r *Record) volatility(runs []Run) error {
	rows, err := summarizeRuns(runs)
	if err != nil {
		return err
	}
	tab := report.NewTable("series", "mean elephants", "load fraction", "mean holding", "1-interval flows", "elephant flows")
	for _, row := range rows {
		tab.AddRow(row.Label,
			fmt.Sprintf("%.0f", row.MeanElephants),
			fmt.Sprintf("%.3f", row.MeanLoadFraction),
			holding(row.Summary),
			row.Holding.SingleIntervalFlows, row.Holding.Flows)
	}
	fmt.Fprint(r.W, tab.String())
	return nil
}

func (r *Record) prefix(runs []Run) error {
	tab := report.NewTable("series", "elephant flows", "len range", "active /8", "elephant /8")
	for _, row := range PrefixLengths(runs) {
		tab.AddRow(row.Label, row.Stats.TotalElephantFlows(),
			fmt.Sprintf("/%d-/%d", row.Stats.MinLen, row.Stats.MaxLen),
			row.Stats.ActiveSlash8, row.Stats.ElephantSlash8)
	}
	fmt.Fprint(r.W, tab.String())
	return nil
}

func (r *Record) interval(user *scheme.Spec) error {
	rows, err := IntervalSensitivity(r.Links.Cfg, user)
	if err != nil {
		return err
	}
	tab := report.NewTable("interval", "scheme", "mean elephants", "load fraction", "mean holding (min)")
	for _, row := range rows {
		tab.AddRow(row.Label, row.Scheme, fmt.Sprintf("%.0f", row.MeanElephants),
			fmt.Sprintf("%.3f", row.MeanLoadFraction), fmt.Sprintf("%.0f", row.MeanHolding.Minutes()))
	}
	fmt.Fprint(r.W, tab.String())
	return nil
}

func (r *Record) ablation(sw Sweep) error {
	rows, err := Ablation(r.Links, sw)
	if err != nil {
		return err
	}
	tab := report.NewTable("param", "value", "mean elephants", "load fraction", "mean holding", "1-interval", "theta CV", "reclass")
	for _, row := range rows {
		tab.AddRow(sw.Param, row.Label,
			fmt.Sprintf("%.0f", row.MeanElephants),
			fmt.Sprintf("%.3f", row.MeanLoadFraction),
			fmt.Sprintf("%.1f", row.Holding.MeanHolding),
			row.Holding.SingleIntervalFlows,
			fmt.Sprintf("%.3f", row.ThresholdCV),
			row.Reclassifications)
	}
	fmt.Fprint(r.W, tab.String())
	return nil
}

func (r *Record) baseline(runs []Run) error {
	rows, err := BaselineComparison(runs[0])
	if err != nil {
		return err
	}
	tab := report.NewTable("strategy", "mean elephants", "count CV", "load fraction", "set jaccard", "mean holding", "1-interval", "reclass")
	for _, row := range rows {
		tab.AddRow(row.Label,
			fmt.Sprintf("%.0f", row.MeanElephants),
			fmt.Sprintf("%.3f", row.CountCV),
			fmt.Sprintf("%.3f", row.MeanLoadFraction),
			fmt.Sprintf("%.3f", row.SetJaccard),
			fmt.Sprintf("%.1f", row.Holding.MeanHolding),
			row.Holding.SingleIntervalFlows, row.Reclassifications)
	}
	fmt.Fprint(r.W, tab.String())
	return nil
}

func (r *Record) concentration(_ []Run) error {
	rows, err := Concentration(r.Links)
	if err != nil {
		return err
	}
	tab := report.NewTable("link", "interval", "flows", "gini", "top-10% share", "top-1% share", "tail index")
	for _, row := range rows {
		tail := "-"
		if row.TailIndex > 0 {
			tail = fmt.Sprintf("%.2f", row.TailIndex)
		}
		tab.AddRow(row.Link, row.Interval, row.Flows,
			fmt.Sprintf("%.3f", row.Gini),
			fmt.Sprintf("%.3f", row.Top10Share),
			fmt.Sprintf("%.3f", row.Top1Share), tail)
	}
	fmt.Fprint(r.W, tab.String())
	return nil
}

func (r *Record) sampling(runs []Run) error {
	rows, err := SamplingImpact(runs[0], nil, r.Links.Cfg.Seed)
	if err != nil {
		return err
	}
	tab := report.NewTable("sampling", "mean elephants", "true load fraction", "jaccard vs unsampled", "mean holding")
	for _, row := range rows {
		tab.AddRow(row.Label,
			fmt.Sprintf("%.0f", row.MeanElephants),
			fmt.Sprintf("%.3f", row.TrueLoadFraction),
			fmt.Sprintf("%.3f", row.JaccardVsUnsampled),
			fmt.Sprintf("%.1f", row.Holding.MeanHolding))
	}
	fmt.Fprint(r.W, tab.String())
	return nil
}
