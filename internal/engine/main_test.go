package engine

import (
	"flag"
	"testing"

	"repro/internal/core"
)

// TestMain runs this package's tests — whole pipelines, held to the
// equivalence contracts — with core.DebugInvariants on, so every Step
// re-verifies the snapshot's order and the verdict's indices. No test
// here toggles the variable. Benchmarks keep the production setting.
func TestMain(m *testing.M) {
	flag.Parse()
	core.DebugInvariants = flag.Lookup("test.bench").Value.String() == ""
	m.Run()
}
