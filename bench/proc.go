package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// procSnapshot is the process's cumulative cost at one instant.
type procSnapshot struct {
	cpu        time.Duration // user+system, all threads
	allocBytes uint64
	gcCycles   uint64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

// processCPU is the process's user+system CPU time so far (getrusage:
// the benchmark runs where its bash launcher does).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSnapshot {
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	return procSnapshot{cpu: processCPU(), allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// procWatcher samples the high-water marks a before/after pair cannot
// see: live heap and goroutine count. runtime/metrics does not stop the
// world, so the 50 ms sampling does not disturb the run it watches.
type procWatcher struct {
	stop chan struct{}
	wg   sync.WaitGroup

	heapMax       uint64
	goroutinesMax int
}

func startProcWatcher() *procWatcher {
	w := &procWatcher{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		s := append([]metrics.Sample(nil), procSamples...)
		for {
			metrics.Read(s)
			if v := s[2].Value.Uint64(); v > w.heapMax {
				w.heapMax = v
			}
			if n := runtime.NumGoroutine(); n > w.goroutinesMax {
				w.goroutinesMax = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// done stops the watcher and waits for it; the maxima are then safe to
// read.
func (w *procWatcher) done() {
	close(w.stop)
	w.wg.Wait()
}

// procMetrics fills the proc.* per-layer metrics for a section that
// handled the given number of records.
func procMetrics(m map[string]float64, before, after procSnapshot, w *procWatcher, records float64) {
	m["proc.cpu_us_per_record"] = float64((after.cpu - before.cpu).Microseconds()) / records
	m["proc.alloc_bytes_per_record"] = float64(after.allocBytes-before.allocBytes) / records
	m["proc.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["proc.heap_inuse_mb_max"] = float64(w.heapMax) / (1 << 20)
	m["proc.goroutines_max"] = float64(w.goroutinesMax)
}
