package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/scheme"
)

// Sweep is one parameter ablation of the paper's scheme.
type Sweep struct {
	// Param names the swept parameter.
	Param string
	// Values are the settings swept.
	Values []float64
	// spec builds the paper's scheme with the parameter at v.
	spec func(v float64) *scheme.Spec
}

// The three ablations. The paper settles on α = 0.5 as "sufficiently
// smooth" (the sweep shows the smoothness/adaptivity trade-off), uses a
// latent-heat window of 12 slots — one hour — and β = 0.8.
var (
	AlphaSweep = Sweep{"alpha", []float64{0, 0.25, 0.5, 0.75, 0.9}, func(a float64) *scheme.Spec {
		sp := PaperSpec()
		sp.Alpha = a
		return sp
	}}
	WindowSweep = Sweep{"window", []float64{1, 6, 12, 24}, func(w float64) *scheme.Spec {
		return PaperSpec().WithClassifierParam("window", strconv.Itoa(int(w)))
	}}
	BetaSweep = Sweep{"beta", []float64{0.5, 0.6, 0.7, 0.8, 0.9}, func(b float64) *scheme.Spec {
		return PaperSpec().WithDetectorParam("beta", strconv.FormatFloat(b, 'f', -1, 64))
	}}
)

// Ablation runs the sweep's variants over the west link in one Classify
// call and summarises each; a row's label is its parameter value.
func Ablation(ls *LinkSet, sw Sweep) ([]Row, error) {
	specs := make([]*scheme.Spec, len(sw.Values))
	for i, v := range sw.Values {
		specs[i] = sw.spec(v)
	}
	runs, err := Classify(ls.Links()[:1], specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation %s: %w", sw.Param, err)
	}
	rows, err := summarizeRuns(runs)
	if err != nil {
		return nil, err
	}
	for i, v := range sw.Values {
		rows[i].Label = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return rows, nil
}
