package main

import (
	"bytes"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// sentinels are mutants the tests must kill, each named by file and
// key. They hold the paper's definition (its three strict comparisons
// and the latent window's eviction), the mutation checks earlier
// changes recorded by hand, and one mutant per operator per package in
// scope. The edits below add the ones no operator makes.
var sentinels = []struct{ file, key string }{
	// The paper's two-feature rule: strictly above θ̂, strictly positive
	// latent heat, for active and for idle flows.
	{"internal/core/classifier.go", "(*SingleFeatureClassifier).Classify: bw > thresholdHat → bw >= thresholdHat"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).Classify: winSum[id]-thrSum > 0 → winSum[id]-thrSum >= 0"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).Classify: winSum[id]-thrSum > 0 → winSum[id]-thrSum >= 0 #2"},
	// A flow idle for the eviction horizon is evicted one interval late.
	{"internal/core/latentwindow.go", "(*LatentWindow).Observe: seen-lastSeen[id] >= evictAt → seen-lastSeen[id] > evictAt"},
	// A foreign ID column's translation: the prefix check, the free-ID
	// check, the clear on a new foreign table.
	{"internal/core/flowtable.go", "(*FlowTable).translateIDs: tb.prefixes[id] == p → tb.prefixes[id] != p"},
	{"internal/core/flowtable.go", "(*FlowTable).translateIDs: tb.state[id] != flowFree → tb.state[id] == flowFree"},
	{"internal/core/flowtable.go", "(*FlowTable).translateIDs: clear(tb.foreignIDs) → (deleted)"},
	// A quiet flow's row is released only if no record touched it since,
	// and only after the closes of its grace period, floor included.
	{"internal/agg/stream.go", "(*StreamAccumulator).releaseQuiet: a.lastSeen[id] == g-grace → a.lastSeen[id] != g-grace"},
	{"internal/agg/stream.go", "(*StreamAccumulator).releaseQuiet: g+1 → g+2"},
	{"internal/agg/stream.go", "package: minQuietCloses = 15 → minQuietCloses = 14"},
	// A snapshot admits strictly positive bandwidths only.
	{"internal/core/snapshot.go", "(*FlowSnapshot).Append: bw > 0 → bw >= 0"},

	// One per operator per package.
	{"internal/agg/record.go", "spreadRecord: t+1 → t-1"},
	{"internal/agg/record.go", "spreadRecord: end < off → end <= off"},
	{"internal/agg/series.go", "(*Series).RowIndex: s.flows[p] = i → (deleted)"},
	{"internal/agg/stream.go", "(*StreamAccumulator).add: err != nil → err == nil"},
	{"internal/agg/series.go", "(*Series).intervalIdx: bw > 0 → bw > (-1)"},
	{"internal/agg/record.go", "spreadRecord: t >= lo && end <= int64(t+1)*interval → t >= lo || end <= int64(t+1)*interval"},
	{"internal/agg/stream.go", "NewStreamAccumulator: cfg.Interval <= 0 → !(cfg.Interval <= 0)"},
	{"internal/analysis/holding.go", "HoldingTimes: total += r → total -= r"},
	{"internal/analysis/holding.go", "runLengths: cur > 0 → cur >= 0"},
	{"internal/analysis/holding.go", "stateSequences: out[p] = seq → (deleted)"},
	{"internal/analysis/holding.go", "HoldingTimes: maxRun == 1 → maxRun != 1"},
	{"internal/analysis/holding.go", "runLengths: cur := 0 → cur := 1"},
	{"internal/analysis/prefixlen.go", "PrefixLengths: first || bits < st.MinLen → first && bits < st.MinLen"},
	{"internal/analysis/holding.go", "stateSequences: from >= to → !(from >= to)"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).thresholdSum: s += c.thrHist[i] → s -= c.thrHist[i] #2"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).thresholdSum: k < c.Window → k <= c.Window"},
	{"internal/core/flowtable.go", "(*FlowTable).Intern: tb.ids[p] = id → (deleted)"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).LatentHeat: c.win.lastSeen[id] == 0 → c.win.lastSeen[id] != 0"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).thresholdSum: k := 0 → k := 1"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).LatentHeat: !ok || int(id) >= len(c.win.lastSeen) || c.win.lastSeen[id] == 0 → !ok || int(id) >= len(c.win.lastSeen) && c.win.lastSeen[id] == 0"},
	{"internal/core/classifier.go", "(*LatentHeatClassifier).Classify: winSum[id]-thrSum > 0 → !(winSum[id]-thrSum > 0)"},
	{"internal/engine/matrix.go", "splitSpecs: g+1 → g-1"},
	{"internal/engine/engine.go", "(*MultiLinkEngine).runPool: i < n → i <= n"},
	{"internal/engine/engine.go", "newPipeline: cfg.Observer = obs → (deleted)"},
	{"internal/engine/prepass.go", "(*MultiLinkEngine).prepassThresholds: len(dets) == 0 → len(dets) != 0"},
	{"internal/engine/engine.go", "(*MultiLinkEngine).runPool: w := 0 → w := 1"},
	{"internal/engine/engine.go", "(seriesTask).run: t < s.Intervals && live > 0 → t < s.Intervals || live > 0"},
	// A task whose cells all fail to build steps no interval.
	{"internal/engine/engine.go", "(seriesTask).run: live := 0 → live := 1"},
	{"internal/engine/engine.go", "stepCells: c.pipe == nil → !(c.pipe == nil)"},
	{"internal/netflow/recordsource.go", "(*RecordSource).Next: s.next-1 → s.next+1"},
	{"internal/netflow/collect.go", "AttributeDatagram: len(rest) > 0 → len(rest) >= 0"},
	{"internal/netflow/recordsource.go", "(*RecordSource).Next: s.next = 0 → (deleted)"},
	{"internal/netflow/recordsource.go", "(*RecordSource).Next: err != nil → err == nil"},
	{"internal/netflow/collect.go", "fillRecord: dst.Span = 0 → dst.Span = 1"},
	{"internal/netflow/collect.go", "fillRecord: r.Last > r.First → !(r.Last > r.First)"},
	{"internal/scheme/spec.go", "(*Spec).Config: s.Alpha >= 0 → s.Alpha > 0"},
	{"internal/scheme/registry.go", "List: listGroup(&b, \"detectors\", detectors) → (deleted)"},
	{"internal/scheme/parse.go", "parseComponent: key == \"\" → key != \"\""},
	{"internal/scheme/registry.go", "(*componentDef).knownKeys: len(keys) == 0 → len(keys) == 1"},
	{"internal/scheme/spec.go", "(*Spec).Config: s.Alpha >= 0 && s.Alpha < 1 → s.Alpha >= 0 || s.Alpha < 1"},
	{"internal/scheme/spec.go", "(Component).String: len(c.Params) == 0 → !(len(c.Params) == 0)"},
	{"internal/stats/aest.go", "package: q += 0.02 → q -= 0.02"},
	{"internal/stats/sort.go", "SortPositive: lo > 0 → lo >= 0"},
	{"internal/stats/concentration.go", "Lorenz: l = make([]float64, len(sorted)) → (deleted)"},
	{"internal/stats/aest.go", "(*AestScratch).fitLevels: err != nil → err == nil"},
	{"internal/stats/aest.go", "(*AestScratch).shiftAlpha: k := 0 → k := 1"},
	{"internal/stats/aest.go", "Hill: k < 2 || k >= n → k < 2 && k >= n"},
	{"internal/stats/aest.go", "(*AestScratch).ensure: cap(s.buf) < n → !(cap(s.buf) < n)"},
}

// edits are sentinels no operator makes, each an edit of source text
// that occurs exactly once in its file.
var edits = []struct{ file, fn, orig, mut string }{
	// The EWMA's weight on the wrong term: at α = ½ the two weights are
	// equal and the swap does not show.
	{"internal/stats/summary.go", "(*EWMA).Update", "float64(e.Alpha*e.value) + float64((1-e.Alpha)*x)", "float64((1-e.Alpha)*e.value) + float64(e.Alpha*x)"},
	// The window re-summed from the wrong plane: the same W terms in
	// another order, off by roundings from the oldest-first Σ θ̂.
	{"internal/core/latentwindow.go", "(*LatentWindow).Observe", "oldest := w.t % w.window", "oldest := (w.t + 1) % w.window"},
}

// editMutant returns the mutant an edit makes.
func editMutant(root string, file, fn, orig, mut string) (*Mutant, error) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(file)))
	if err != nil {
		return nil, err
	}
	at := bytes.Index(src, []byte(orig))
	if at < 0 || bytes.Count(src, []byte(orig)) != 1 {
		return nil, fmt.Errorf("%s: %q does not occur exactly once", file, orig)
	}
	line := 1 + bytes.Count(src[:at], []byte("\n"))
	col := at - bytes.LastIndexByte(src[:at], '\n')
	return &Mutant{
		Pkg: path.Dir(file), File: file, Line: line, Col: col, Func: fn, Op: "edit",
		Orig: orig, Mut: mut, Key: fn + ": " + orig + " → " + mut,
		start: at, end: at + len(orig), repl: mut,
	}, nil
}

func gate(root string) error {
	ms, err := enumerate(root)
	if err != nil {
		return err
	}
	byKey := map[string]*Mutant{}
	for _, m := range ms {
		byKey[m.File+" "+m.Key] = m
	}
	var picked []*Mutant
	pkgs := map[string]bool{}
	var missing []string
	for _, s := range sentinels {
		m := byKey[s.file+" "+s.key]
		if m == nil {
			missing = append(missing, s.file+" "+s.key)
			continue
		}
		picked = append(picked, m)
		pkgs["./"+m.Pkg] = true
	}
	if len(missing) > 0 {
		return fmt.Errorf("sentinels match no mutant of the tree:\n\t%s", strings.Join(missing, "\n\t"))
	}
	for _, e := range edits {
		m, err := editMutant(root, e.file, e.fn, e.orig, e.mut)
		if err != nil {
			return err
		}
		picked = append(picked, m)
		pkgs["./"+m.Pkg] = true
	}
	if _, err := baseline(root, sortedKeys(pkgs)); err != nil {
		return err
	}
	outs, err := runAll(root, picked, func(m *Mutant) [][]string { return [][]string{{"./" + m.Pkg}} }, true)
	if err != nil {
		return err
	}
	var bad []string
	for i, o := range outs {
		if o.Status != "killed" {
			bad = append(bad, fmt.Sprintf("%s %s: %s", picked[i].ID(), picked[i].Key, o.Status))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("%d of %d sentinels not killed:\n\t%s", len(bad), len(picked), strings.Join(bad, "\n\t"))
	}
	fmt.Fprintf(os.Stdout, "gate: all %d sentinels killed\n", len(picked))
	return nil
}
