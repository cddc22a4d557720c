// Command calibrate sweeps the synthetic-workload shape parameters and
// scores each candidate against the paper's headline numbers, printing a
// ranked table. It is how the repository's default shape was chosen;
// cmd/experiments prints the paper-vs-measured results it feeds.
//
// Paper targets (Sections II-III):
//
//	single-feature mean holding     20-40 min
//	single-feature 1-slot flows     > 1000 per link
//	two-feature mean holding        ~2 h
//	two-feature 1-slot flows        ~50
//	mean elephants                  ~600 west / ~500 east
//	two-feature load fraction       ~0.6
//
// By default the two-feature metrics average the paper's two schemes
// (aest and constant-load, latent heat on); -scheme replaces them with
// one registry spec, so the workload can be calibrated against any
// registered scheme — baselines included.
//
// Usage:
//
//	calibrate [-flows 9000] [-intervals 336] [-seed 1]
//	          [-tailindex 1.3,1.5,1.7] [-tailshare 0.04,0.08]
//	          [-burstsigma 0.9] [-burstrho 0.55] [-scheme SPEC]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scheme"
)

func main() {
	var (
		flows      = flag.Int("flows", 9000, "flows per link")
		intervals  = flag.Int("intervals", 336, "intervals")
		seed       = flag.Int64("seed", 1, "seed")
		tailIndex  = flag.String("tailindex", "1.3", "comma list of Pareto tail indices")
		tailShare  = flag.String("tailshare", "0.04", "comma list of tail shares")
		burstSigma = flag.String("burstsigma", "0.9", "comma list of burst sigmas")
		burstRho   = flag.String("burstrho", "0.55", "comma list of burst rhos")
		schemeSpec = flag.String("scheme", "", "score the two-feature metrics under one registry spec instead of the paper pair;\n"+scheme.FlagUsage())
	)
	flag.Parse()

	var sp *scheme.Spec
	if *schemeSpec != "" {
		var err error
		// A parse error's text enumerates the registered schemes.
		sp, err = scheme.ParseValidated(*schemeSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(2)
		}
	}

	tis := parseList(*tailIndex)
	tss := parseList(*tailShare)
	bss := parseList(*burstSigma)
	brs := parseList(*burstRho)

	tab := report.NewTable("tailIdx", "tailShare", "bSigma", "bRho",
		"eleph W/E", "frac", "hold1", "hold2", "1slot1", "1slot2", "score")
	type scored struct {
		row   []interface{}
		score float64
	}
	var best *scored
	for _, ti := range tis {
		for _, ts := range tss {
			for _, bs := range bss {
				for _, br := range brs {
					cfg := experiments.LinksConfig{
						Flows:     *flows,
						Intervals: *intervals,
						Seed:      *seed,
						Shape: experiments.ShapeConfig{
							TailIndex:  ti,
							TailShare:  ts,
							BurstSigma: bs,
							BurstRho:   br,
						},
					}
					m, err := measure(cfg, sp)
					if err != nil {
						fmt.Fprintf(os.Stderr, "calibrate: ti=%g ts=%g bs=%g br=%g: %v\n", ti, ts, bs, br, err)
						continue
					}
					s := score(m)
					row := []interface{}{
						fmt.Sprintf("%g", ti), fmt.Sprintf("%g", ts),
						fmt.Sprintf("%g", bs), fmt.Sprintf("%g", br),
						fmt.Sprintf("%.0f/%.0f", m.elephW, m.elephE),
						fmt.Sprintf("%.2f", m.frac),
						fmt.Sprintf("%.0fm", m.hold1),
						fmt.Sprintf("%.1fh", m.hold2/60),
						fmt.Sprintf("%.0f", m.oneSlot1),
						fmt.Sprintf("%.0f", m.oneSlot2),
						fmt.Sprintf("%.3f", s),
					}
					tab.AddRow(row...)
					if best == nil || s < best.score {
						best = &scored{row: row, score: s}
					}
				}
			}
		}
	}
	fmt.Print(tab.String())
	if best != nil {
		fmt.Printf("\nbest (lower is better): %v\n", best.row)
	}
}

// metrics are averaged over the four (scheme, link) runs unless noted.
type metrics struct {
	elephW, elephE     float64 // two-feature mean elephant count per link
	frac               float64 // two-feature mean load fraction
	hold1, hold2       float64 // single-/two-feature mean holding (min)
	oneSlot1, oneSlot2 float64 // single-/two-feature 1-slot flows
}

func measure(cfg experiments.LinksConfig, sp *scheme.Spec) (metrics, error) {
	ls, err := experiments.BuildLinks(cfg)
	if err != nil {
		return metrics{}, err
	}
	single, err := experiments.SingleFeatureVolatility(ls)
	if err != nil {
		return metrics{}, err
	}
	var two []experiments.VolatilityResult
	if sp != nil {
		two, err = experiments.SchemeStability(ls, sp)
	} else {
		two, err = experiments.TwoFeatureStability(ls)
	}
	if err != nil {
		return metrics{}, err
	}
	var m metrics
	var nw, ne float64
	for _, r := range single {
		m.hold1 += r.MeanHolding.Minutes() / float64(len(single))
		m.oneSlot1 += float64(r.SingleIntervalFlows) / float64(len(single))
	}
	for _, r := range two {
		m.hold2 += r.MeanHolding.Minutes() / float64(len(two))
		m.oneSlot2 += float64(r.SingleIntervalFlows) / float64(len(two))
		m.frac += r.MeanLoadFraction / float64(len(two))
		if r.Run.Link == "west" {
			m.elephW += r.MeanElephants
			nw++
		} else {
			m.elephE += r.MeanElephants
			ne++
		}
	}
	if nw > 0 {
		m.elephW /= nw
	}
	if ne > 0 {
		m.elephE /= ne
	}
	return m, nil
}

// score is a sum of squared log-deviations from the paper targets; the
// holding-time targets use the band midpoints (30 min, 120 min).
func score(m metrics) float64 {
	dev := func(got, want float64) float64 {
		if got <= 0 || want <= 0 {
			return 4
		}
		d := math.Log(got / want)
		return d * d
	}
	return dev(m.elephW, 600) + dev(m.elephE, 500) +
		dev(m.frac, 0.6) +
		dev(m.hold1, 30) + dev(m.hold2, 120) +
		dev(m.oneSlot1, 1200) + dev(m.oneSlot2, 50)
}

func parseList(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: bad value %q: %v\n", part, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
