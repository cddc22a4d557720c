package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/scheme"
)

// setupRounds is how many times a run builds its inputs; setup_s is the
// median, and the last build is the one the run uses.
const setupRounds = 7

// timedSetup runs build setupRounds times, releasing all but the last
// result through discard (nil when a result holds nothing but memory),
// and returns the last result with the median build time in seconds.
func timedSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRounds)
	for round := 0; round < setupRounds; round++ {
		if round > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	// Earlier rounds' inputs are garbage now; collect them before the
	// timed section instead of during it.
	runtime.GC()
	fmt.Fprintf(os.Stderr, "bench: set-up rounds %.3f s\n", times)
	return last, median(times), nil
}

// recordInputs is what the stream and live workloads share: the BGP
// table, one repetition of wire bytes, and the scheme.
type recordInputs struct {
	table *bgp.Table
	wire  *wireSet
	spec  *scheme.Spec
}

func buildRecordInputs(shape linkShape, seed int64) (*recordInputs, error) {
	table, err := bgp.Generate(bgp.GenConfig{Routes: tableRoutes, Seed: seed})
	if err != nil {
		return nil, err
	}
	wire, err := buildWire(table, shape, seed)
	if err != nil {
		return nil, err
	}
	return &recordInputs{table: table, wire: wire, spec: scheme.MustParse(schemeSpec)}, nil
}
