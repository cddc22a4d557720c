// Command bench is the repository's performance benchmark: four
// workloads (batch matrix, single-goroutine stream replay, one heavy
// live link, many small live links) run inside this one process against
// generated inputs, each checked against a reference computation. The
// daemon under test is serve.NewDaemon bound to 127.0.0.1:0 and the
// load generator is a goroutine, so nothing outlives the process and no
// fixed port is needed. See README.md for the metrics and BENCHMARK.json
// at the repository root for the driver's view of them.
//
// Usage (the driver's form):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Everything else goes
// to standard error. -agree runs every workload's end-to-end set twice
// (A B C D A B C D) and exits non-zero when a metric's two readings
// differ by more than its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// runConfig is one workload run's input.
type runConfig struct {
	seed     int64
	seconds  time.Duration // timed section's budget
	traced   bool
	traceOut string
}

// outcome is one workload run's result: the operations it attempted
// and how many failed the output check, why, and the measured metrics.
type outcome struct {
	attempted uint64
	failed    uint64
	problems  []string
	metrics   map[string]float64
}

func (o *outcome) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += uint64(n)
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// perRunDeadline is the watchdog's allowance for one workload run; the
// driver allows 180 s.
const perRunDeadline = 170 * time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload to run, one of BENCHMARK.json's")
		seed     = flag.Int64("seed", 1, "input seed: equal seeds give byte-identical inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed section")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", "", "span file written by a traced run (default .bench_build/trace-<workload>.json)")
		agree    = flag.Bool("agree", false, "repeatability mode: every workload twice, fail on disagreement beyond the bounds")
	)
	flag.Parse()
	fmt.Fprintf(os.Stderr, "bench: nproc=%d GOMAXPROCS=%d go=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds, *trace)
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}

	if *agree {
		startWatchdog(time.Duration(2*len(workloads)) * perRunDeadline)
		os.Exit(runAgree(cfg))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg.traceOut = *traceOut
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	startWatchdog(perRunDeadline)
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	if !report(os.Stdout, out, defs) {
		os.Exit(1)
	}
}

// startWatchdog bounds the whole invocation: past the deadline it dumps
// every goroutine and exits non-zero, which also closes every socket —
// a hang can cost a run, never leave something behind.
func startWatchdog(d time.Duration) {
	time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: still running after %v; goroutines:\n", d)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the problems to standard error and the result line to
// w, and reports whether the run was correct.
func report(w *os.File, out *outcome, defs []metricDef) bool {
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", p)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s is %v\n", d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "bench:   %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding result:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

// runAgree is the repeatability mode: every workload's end-to-end set,
// twice, the second pass after the whole first pass, so drift over the
// invocation shows. It returns the exit code.
func runAgree(cfg runConfig) int {
	cfg.traced = false
	passes := [2][]*outcome{}
	for pass := range passes {
		for i := range workloads {
			w := &workloads[i]
			out, err := w.run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "bench: pass %d %s\n", pass, w.name)
			if !report(os.Stderr, out, endToEnd) {
				return 1
			}
			passes[pass] = append(passes[pass], out)
		}
	}
	code := 0
	for i := range workloads {
		for _, d := range endToEnd {
			a, b := passes[0][i].metrics[d.name], passes[1][i].metrics[d.name]
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "agree"
			if diff > d.bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %s  diff %.3f bound %.2f  %s\n",
				workloads[i].name, d.name, a, b, d.unit, diff, d.bound, verdict)
		}
	}
	return code
}
