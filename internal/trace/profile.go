// Package trace synthesizes backbone-link workloads that stand in for
// the Sprint OC-12 packet traces used by the paper (proprietary; never
// released). The generator reproduces the traffic properties that drive
// the paper's results: a heavy-tailed per-prefix rate distribution,
// diurnal link utilisation (one bursty "west coast" link and one smooth
// "east coast" link), AR(1)-correlated short-term rate volatility, and
// flow birth/death churn. It can emit either the per-interval bandwidth
// matrix directly (fast path for the 28-hour experiments) or real packets
// through the packet/pcap substrate (full-pipeline path). A product added
// to anything is wrapped in float64(…), which forbids a fused
// multiply-add: every host draws the same traffic (scripts/nofma.sh).
package trace

import (
	"math"
	"time"

	"repro/internal/stats"
)

// DiurnalProfile maps time-of-day to a link utilisation multiplier with
// mean ≈ 1 over 24 hours.
type DiurnalProfile interface {
	// At returns the load multiplier at time-of-day offset d from local
	// midnight. Implementations must be positive everywhere.
	At(d time.Duration) float64
	// Name identifies the profile in reports.
	Name() string
}

// gaussianBumpProfile is a baseline plus a working-hours Gaussian bump,
// normalised to unit daily mean.
type gaussianBumpProfile struct {
	name     string
	baseline float64
	bump     float64       // peak height above baseline, pre-normalisation
	center   time.Duration // bump center, offset from midnight
	width    time.Duration // bump standard deviation
	norm     float64
}

func newGaussianBumpProfile(name string, baseline, bump float64, center, width time.Duration) *gaussianBumpProfile {
	p := &gaussianBumpProfile{name: name, baseline: baseline, bump: bump, center: center, width: width, norm: 1}
	// Normalise mean over 24h to 1 by sampling (closed form exists but
	// sampling keeps the code obvious; 1440 points is exact enough).
	var sum float64
	const steps = 1440
	for i := 0; i < steps; i++ {
		sum += p.raw(time.Duration(i) * time.Minute)
	}
	p.norm = float64(steps) / sum
	return p
}

func (p *gaussianBumpProfile) raw(d time.Duration) float64 {
	// Wrap to [0, 24h).
	day := 24 * time.Hour
	d = ((d % day) + day) % day
	// Distance to center on the circle.
	dist := math.Abs(float64(d - p.center))
	if alt := float64(day) - dist; alt < dist {
		dist = alt
	}
	w := float64(p.width)
	return p.baseline + float64(p.bump*stats.Exp(-dist*dist/(2*w*w)))
}

// At implements DiurnalProfile.
func (p *gaussianBumpProfile) At(d time.Duration) float64 { return p.raw(d) * p.norm }

// Name implements DiurnalProfile.
func (p *gaussianBumpProfile) Name() string { return p.name }

// WestCoastProfile models the paper's west-coast link: a pronounced
// utilisation burst during working hours (peak ≈ 2.4x trough).
func WestCoastProfile() DiurnalProfile {
	return newGaussianBumpProfile("west-coast", 0.55, 1.0, 14*time.Hour, 3*time.Hour)
}

// EastCoastProfile models the east-coast link: smoother utilisation
// through the day (peak ≈ 1.5x trough).
func EastCoastProfile() DiurnalProfile {
	return newGaussianBumpProfile("east-coast", 0.80, 0.45, 13*time.Hour+30*time.Minute, 4*time.Hour)
}

// FlatProfile returns a constant unit profile, useful in tests that need
// stationary load.
func FlatProfile() DiurnalProfile { return flatProfile{} }

type flatProfile struct{}

func (flatProfile) At(time.Duration) float64 { return 1 }
func (flatProfile) Name() string             { return "flat" }
