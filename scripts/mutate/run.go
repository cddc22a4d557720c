package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// A testRun is what one `go test -json` invocation reported.
type testRun struct {
	passed, failed []string // top-level tests, "importpath.Name"
	failedPkgs     []string // packages that failed with no test failing
	limit          string   // "timeout" or "oom" if a limit stopped a binary
}

// limited runs a go command under the address-space cap, in its own
// process group so that the wall limit can kill everything it started.
func limited(root string, args ...string) (stdout, stderr []byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), wallLimit)
	defer cancel()
	cmd := exec.Command("sh", append([]string{"-c", fmt.Sprintf(`ulimit -v %d && exec "$@"`, memLimitKiB), "sh", "go"}, args...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-ctx.Done():
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
		err = ctx.Err()
	}
	return out.Bytes(), errb.Bytes(), err
}

// compiles reports whether the package builds with the overlay.
func compiles(root, overlay, pkg string) bool {
	_, _, err := limited(root, "build", "-overlay="+overlay, "-o", os.DevNull, "./"+pkg)
	return err == nil
}

// goTest runs the packages' tests; overlay may be empty.
func goTest(root, overlay string, pkgs []string, failfast bool) (testRun, error) {
	args := []string{"test", "-count=1", "-json", "-p", "1", "-vet=off", "-timeout", testTimeout}
	if overlay != "" {
		args = append(args, "-overlay="+overlay)
	}
	if failfast {
		args = append(args, "-failfast")
	}
	stdout, stderr, err := limited(root, append(args, pkgs...)...)
	var r testRun
	if errors.Is(err, context.DeadlineExceeded) {
		r.limit = "timeout"
	}
	var ee *exec.ExitError
	if err != nil && r.limit == "" && !errors.As(err, &ee) {
		return r, err
	}
	noteLimit := func(text string) {
		switch {
		case strings.Contains(text, "panic: test timed out"):
			r.limit = "timeout"
		case strings.Contains(text, "out of memory"), strings.Contains(text, "cannot allocate memory"):
			if r.limit == "" {
				r.limit = "oom"
			}
		}
	}
	testFailed := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		noteLimit(ev.Output)
		top := ev.Test
		if i := strings.IndexByte(top, '/'); i >= 0 {
			continue // subtests fail their parent too
		}
		switch {
		case ev.Action == "pass" && top != "":
			r.passed = append(r.passed, ev.Package+"."+top)
		case ev.Action == "fail" && top != "":
			r.failed = append(r.failed, ev.Package+"."+top)
			testFailed[ev.Package] = true
		case ev.Action == "fail" && !testFailed[ev.Package]:
			r.failedPkgs = append(r.failedPkgs, ev.Package)
		}
	}
	noteLimit(string(stderr))
	if err != nil && len(r.failed) == 0 && len(r.failedPkgs) == 0 {
		// The go command failed without a test result: a build, a
		// crash or a limit before any binary ran.
		r.failedPkgs = append(r.failedPkgs, "go test")
	}
	return r, nil
}

// killers names what failed: tests, or a package and why it failed.
func (r testRun) killers() []string {
	k := append([]string(nil), r.failed...)
	for _, p := range r.failedPkgs {
		why := r.limit
		if why == "" {
			why = "crash"
		}
		k = append(k, p+" ("+why+")")
	}
	sort.Strings(k)
	return k
}

// An Outcome is what became of one mutant.
type Outcome struct {
	Status  string   // "killed", "survived" or "not viable"
	Limit   string   // "timeout" or "oom" when a limit stopped a test binary
	Killers []string // sorted
}

// runMutant writes the mutant under os.TempDir() and runs pkgSets in
// order, stopping at the first set that kills it.
func runMutant(root string, m *Mutant, pkgSets [][]string, failfast bool) (Outcome, error) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.File)))
	if err != nil {
		return Outcome{}, err
	}
	dir, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		return Outcome{}, err
	}
	defer os.RemoveAll(dir)
	mutated := filepath.Join(dir, filepath.Base(m.File))
	if err := os.WriteFile(mutated, m.Apply(src), 0o644); err != nil {
		return Outcome{}, err
	}
	ov, _ := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, filepath.FromSlash(m.File)): mutated},
	})
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		return Outcome{}, err
	}
	if !compiles(root, overlay, m.Pkg) {
		return Outcome{Status: "not viable"}, nil
	}
	for _, pkgs := range pkgSets {
		if len(pkgs) == 0 {
			continue
		}
		r, err := goTest(root, overlay, pkgs, failfast)
		if err != nil {
			return Outcome{}, err
		}
		if k := r.killers(); len(k) > 0 {
			return Outcome{Status: "killed", Limit: r.limit, Killers: k}, nil
		}
	}
	return Outcome{Status: "survived"}, nil
}

// runAll runs every mutant on the worker pool; sets gives each
// mutant's package sets.
func runAll(root string, ms []*Mutant, sets func(*Mutant) [][]string, failfast bool) ([]Outcome, error) {
	out := make([]Outcome, len(ms))
	errs := make([]error, len(ms))
	jobs := make(chan int)
	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = runMutant(root, ms[i], sets(ms[i]), failfast)
				mu.Lock()
				done++
				fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s %s\n", done, len(ms), ms[i].ID(), out[i].Status, strings.Join(out[i].Killers, " "))
				mu.Unlock()
			}
		}()
	}
	for i := range ms {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, errors.Join(errs...)
}

// baseline runs the unmutated tests and returns the top-level tests
// that passed; it fails if any test or package fails.
func baseline(root string, pkgs []string) ([]string, error) {
	r, err := goTest(root, "", pkgs, false)
	if err != nil {
		return nil, err
	}
	if k := r.killers(); len(k) > 0 {
		return nil, fmt.Errorf("the unmutated tree fails: %s", strings.Join(k, ", "))
	}
	sort.Strings(r.passed)
	return r.passed, nil
}
