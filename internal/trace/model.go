package trace

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/agg"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// LinkConfig describes one synthetic backbone link.
type LinkConfig struct {
	// Name labels the link in reports ("west", "east").
	Name string
	// Profile shapes the diurnal utilisation. Nil selects FlatProfile.
	Profile DiurnalProfile
	// MeanLoadBps is the target daily-average total link load in bit/s.
	// An OC-12 running at ~50% utilisation carries ≈ 300 Mbit/s.
	MeanLoadBps float64
	// Flows is the number of network-prefix flows that carry traffic on
	// the link during the trace.
	Flows int
	// Table supplies the prefixes; the generator samples Flows routes
	// from it. Required.
	Table *bgp.Table
	// Seed drives all randomness deterministically.
	Seed int64

	// TailIndex is the Pareto index of the heavy rate tail (1 < alpha
	// < 2 gives infinite variance, as backbone measurements show).
	// Defaults to 1.9 (calibrated; see cmd/calibrate).
	TailIndex float64
	// TailShare is the fraction of flows drawn from the Pareto tail
	// component rather than the lognormal body. Defaults to 0.04.
	TailShare float64
	// BodySigma is the lognormal body's log-stddev. Defaults to 1.2.
	BodySigma float64

	// BurstSigma is the per-interval lognormal volatility of a flow's
	// rate around its modulated base rate. Defaults to 0.82, calibrated
	// so that enough near-threshold flows lack persistence for the
	// latent-heat scheme to trim the elephant load from the 0.8
	// constant-load target towards the paper's observed ≈0.6.
	BurstSigma float64
	// BurstRho is the AR(1) correlation of the log-rate modulation
	// between consecutive intervals (persistence of bursts).
	// Defaults to 0.55.
	BurstRho float64

	// MeanOnIntervals and MeanOffIntervals give geometric mean
	// durations of a mouse flow's active and idle periods, in
	// measurement intervals. Heavy flows (tail component) are held
	// always-on, reflecting the aggregated nature of large prefixes.
	// Defaults: 18 on, 6 off.
	MeanOnIntervals  float64
	MeanOffIntervals float64
}

func (c *LinkConfig) defaults() error {
	if c.Table == nil {
		return fmt.Errorf("trace: LinkConfig.Table is required")
	}
	if c.Flows <= 0 {
		return fmt.Errorf("trace: LinkConfig.Flows must be positive, got %d", c.Flows)
	}
	if c.Flows > c.Table.Len() {
		return fmt.Errorf("trace: LinkConfig.Flows %d exceeds table size %d", c.Flows, c.Table.Len())
	}
	if c.MeanLoadBps <= 0 {
		return fmt.Errorf("trace: LinkConfig.MeanLoadBps must be positive")
	}
	if c.Profile == nil {
		c.Profile = FlatProfile()
	}
	if c.TailIndex == 0 {
		c.TailIndex = 1.9
	}
	if c.TailIndex <= 1 {
		return fmt.Errorf("trace: TailIndex must exceed 1 for a finite mean, got %v", c.TailIndex)
	}
	if c.TailShare == 0 {
		c.TailShare = 0.04
	}
	if c.BodySigma == 0 {
		c.BodySigma = 1.2
	}
	if c.BurstSigma == 0 {
		c.BurstSigma = 0.82
	}
	if c.BurstRho == 0 {
		c.BurstRho = 0.55
	}
	if c.MeanOnIntervals == 0 {
		c.MeanOnIntervals = 18
	}
	if c.MeanOffIntervals == 0 {
		c.MeanOffIntervals = 6
	}
	return nil
}

// flowState is the evolving state of one synthetic flow.
type flowState struct {
	prefix   netip.Prefix
	baseRate float64 // bit/s at unit diurnal multiplier
	heavy    bool    // drawn from the tail component
	logMod   float64 // AR(1) log-rate modulation state
	on       bool
	left     int // intervals remaining in the current on/off period
}

// Link is an instantiated synthetic link ready to generate traffic.
type Link struct {
	cfg   LinkConfig
	rng   *rand.Rand
	flows []flowState
}

// NewLink samples the flow population for cfg. The population (prefix
// choice, base rates, component membership) is fully determined by
// cfg.Seed.
func NewLink(cfg LinkConfig) (*Link, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	routes := cfg.Table.Routes()
	perm := rng.Perm(len(routes))[:cfg.Flows]

	flows := make([]flowState, cfg.Flows)
	var sum float64
	// Median of the body; the tail starts well above it so that the
	// rate distribution has a clear body/tail structure for aest.
	bodyMedian := 1.0
	tailStart := bodyMedian * stats.Exp(2.5*cfg.BodySigma)
	for i := range flows {
		f := &flows[i]
		f.prefix = routes[perm[i]].Prefix
		if rng.Float64() < cfg.TailShare {
			f.heavy = true
			// Pareto: x = x_m * U^(-1/alpha).
			u := rng.Float64()
			if u < 1e-12 {
				u = 1e-12
			}
			f.baseRate = tailStart * stats.Exp(-1/cfg.TailIndex*math.Log(u))
		} else {
			f.baseRate = bodyMedian * stats.Exp(rng.NormFloat64()*cfg.BodySigma)
		}
		sum += f.baseRate
		f.on = true
		f.logMod = rng.NormFloat64() * cfg.BurstSigma
		f.left = 1 + rng.Intn(8) // desynchronise on/off phase
	}
	// Scale base rates so expected total (accounting for mouse duty
	// cycle) matches the configured mean load.
	duty := cfg.MeanOnIntervals / (cfg.MeanOnIntervals + cfg.MeanOffIntervals)
	var expected float64
	for i := range flows {
		if flows[i].heavy {
			expected += flows[i].baseRate
		} else {
			expected += float64(flows[i].baseRate * duty)
		}
	}
	scale := cfg.MeanLoadBps / expected
	for i := range flows {
		flows[i].baseRate *= scale
	}
	return &Link{cfg: cfg, rng: rng, flows: flows}, nil
}

// Config returns the (defaulted) configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// geometric draws a geometric duration with the given mean (>= 1).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	// Inverse CDF of the geometric distribution on {1, 2, ...}.
	u := rng.Float64()
	if u < 1e-15 {
		u = 1e-15
	}
	return 1 + int(math.Log(u)/math.Log(1-p))
}

// step advances one flow by one interval and returns its bandwidth.
func (l *Link) step(f *flowState, diurnal float64) float64 {
	cfg := &l.cfg
	// On/off churn (mice only).
	if !f.heavy {
		f.left--
		if f.left <= 0 {
			f.on = !f.on
			if f.on {
				f.left = geometric(l.rng, cfg.MeanOnIntervals)
			} else {
				f.left = geometric(l.rng, cfg.MeanOffIntervals)
			}
		}
		if !f.on {
			return 0
		}
	}
	// AR(1) evolution of the log modulation.
	rho := cfg.BurstRho
	f.logMod = float64(rho*f.logMod) + float64(math.Sqrt(1-float64(rho*rho))*l.rng.NormFloat64()*cfg.BurstSigma)
	// exp(sigma^2/2) mean-correction keeps E[multiplier] = 1.
	mult := stats.Exp(f.logMod - float64(cfg.BurstSigma*cfg.BurstSigma/2))
	return f.baseRate * diurnal * mult
}

// seriesBlock is how many intervals GenerateSeries steps before it
// stores them: the population evolves interval by interval, the matrix
// is row-major, so storing each cell as it is drawn touches a different
// cache line per flow. A block of 8 is one 64-byte line of a row.
const seriesBlock = 8

// GenerateSeries simulates the link for the given window and returns the
// per-flow bandwidth matrix. start fixes the diurnal phase: the profile
// is evaluated at start+t*interval's offset from local midnight.
//
// The series is what a SetBandwidth per positive cell, interval by
// interval in flow order, would build: a flow's row is created by its
// first positive cell, and within an interval the cells — hence the
// terms of its total — are stored in flow order.
func (l *Link) GenerateSeries(start time.Time, interval time.Duration, intervals int) *agg.Series {
	s := agg.NewSeries(start, interval, intervals)
	midnight := time.Date(start.Year(), start.Month(), start.Day(), 0, 0, 0, 0, start.Location())
	n := len(l.flows)
	rows := make([]int, n) // flow -> row index in s, -1 until its first positive cell
	for i := range rows {
		rows[i] = -1
	}
	block := make([]float64, seriesBlock*n) // interval-major: block[j*n+i] is flow i at t0+j
	for t0 := 0; t0 < intervals; t0 += seriesBlock {
		width := min(seriesBlock, intervals-t0)
		for j := 0; j < width; j++ {
			at := start.Add(time.Duration(t0+j) * interval)
			diurnal := l.cfg.Profile.At(at.Sub(midnight))
			col := block[j*n : (j+1)*n]
			for i := range l.flows {
				bw := l.step(&l.flows[i], diurnal)
				col[i] = bw
				if bw > 0 && rows[i] < 0 {
					rows[i] = s.RowIndex(l.flows[i].prefix)
				}
			}
		}
		for i, row := range rows {
			if row < 0 {
				continue
			}
			for j := 0; j < width; j++ {
				if bw := block[j*n+i]; bw > 0 {
					s.SetRowBandwidth(row, t0+j, bw)
				}
			}
		}
	}
	return s
}
