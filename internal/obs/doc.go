// Package obs is the pipeline's instrumentation core: allocation-free
// counters, gauges and fixed-boundary histograms behind a registry that
// renders through report.MetricsWriter. It stores nothing but those
// numbers: what a sealed interval looked like is kept by whoever sealed
// it (serve's per-link history ring).
//
// The package is deliberately dependency-free (stdlib plus the repo's
// own core and report packages) and split along the hot/cold boundary:
// everything on the per-interval path — Counter.Add, Gauge.Set,
// Histogram.Observe, LinkMetrics.ObserveStep — is atomic and performs
// zero allocations, while rendering (the scrape path) may allocate
// freely. The resident daemon attaches a
// LinkMetrics per link as the pipeline's core.StageObserver; batch
// paths pass no observer and pay nothing.
//
// Registration is configuration, not data flow: the New* registry
// methods panic on programmer error (a family re-declared under a
// different type, a duplicate label set) exactly as malformed constant
// initialisation would, so misuse fails loudly at wiring time rather
// than silently corrupting the exposition.
package obs
