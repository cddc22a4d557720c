// Command mutate measures what the repository's tests detect. It makes
// one small edit (a mutant) to the production source at a time, runs
// the tests against it and records which tests fail.
//
// Usage, from the repository root:
//
//	go run -C scripts/mutate . report   # every mutant in scope; writes MUTATION.md (hours)
//	go run -C scripts/mutate . gate     # the sentinel mutants only; fails if one survives (<90 s)
//
// The tree is never edited: a mutant is written under os.TempDir() and
// handed to `go test -overlay`. Scope, operators, tests, limits and
// sentinels are the constants below; there are no flags.
//
// report enumerates every mutant of the files in scope, runs the
// unmutated tree first (and stops if it fails), then runs each mutant:
// first the mutated package's own tests, then, if none of them failed,
// the chain packages. A mutant that does not compile is not viable and
// is left out of the score. A surviving mutant listed in
// equivalent.txt, keyed by function and edit, counts as equivalent.
// The report holds no timings and is sorted, so the same tree gives the
// same bytes. The per-mutant results also go to mutate-report.json
// under os.TempDir().
//
// gate runs each sentinel against its package's tests with -failfast
// and the same limits, and exits 1 if a sentinel is missing, does not
// compile or survives.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// scope lists the packages whose non-test files are mutated; files
// narrows a package to the named files.
var scope = []struct {
	pkg   string
	files []string
}{
	{pkg: "internal/agg"},
	{pkg: "internal/analysis"},
	{pkg: "internal/core"},
	{pkg: "internal/engine"},
	{pkg: "internal/netflow", files: []string{"collect.go", "recordsource.go"}},
	{pkg: "internal/scheme"},
	{pkg: "internal/stats"},
}

// chain is the byte-identity chain: the engine's generated property
// (FuzzEquivalence's seed corpus), the root package and the record's
// golden test. A mutant its own package's tests miss runs against these.
var chain = []string{"./internal/engine", ".", "./cmd/experiments"}

const (
	testTimeout = "60s"                // -timeout on every test binary
	memLimitKiB = 3 << 20              // address-space cap on each go command and its children
	wallLimit   = 10 * time.Minute     // last resort: the whole go command's process group is killed
	workers     = 2                    // mutants run at once, each with -p 1
	reportFile  = "MUTATION.md"        // relative to the repository root
	reasonsFile = "equivalent.txt"     // relative to this directory
	rawFile     = "mutate-report.json" // under os.TempDir()
)

func main() {
	if len(os.Args) != 2 || (os.Args[1] != "report" && os.Args[1] != "gate") {
		fmt.Fprintln(os.Stderr, "usage: go run -C scripts/mutate . report|gate")
		os.Exit(2)
	}
	root, err := filepath.Abs("../..")
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "go.mod"))
	}
	if err != nil {
		fatal(fmt.Errorf("run from scripts/mutate: %v", err))
	}
	if os.Args[1] == "report" {
		err = report(root)
	} else {
		err = gate(root)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	os.Exit(1)
}
