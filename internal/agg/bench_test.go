package agg

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkStreamAccumulator measures the bounded-memory claim: one op
// streams a whole trace of K intervals through an accumulator, and the
// reported allocs/interval must stay flat as K grows — per-interval
// cost (ring slots, emission buffers, sort scratch) is a function of
// the window and the active-flow count, never of trace length. Compare
// the allocs/interval column across the sub-benchmarks.
func BenchmarkStreamAccumulator(b *testing.B) {
	for _, intervals := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("intervals=%d", intervals), func(b *testing.B) {
			recs := synthRecords(11, intervals, 100, time.Minute)
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs0 := ms.Mallocs
			b.ResetTimer()
			emitted := 0
			for i := 0; i < b.N; i++ {
				acc, err := NewStreamAccumulator(StreamConfig{Start: start, Interval: time.Minute, Window: 12})
				if err != nil {
					b.Fatal(err)
				}
				acc.Emit = func(t int, snap *core.FlowSnapshot) error {
					emitted++
					return nil
				}
				for _, rec := range recs {
					if err := acc.Add(rec); err != nil {
						b.Fatal(err)
					}
				}
				if err := acc.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.Mallocs-mallocs0)/float64(intervals*b.N), "allocs/interval")
			b.ReportMetric(float64(len(recs))/float64(intervals), "records/interval")
			if emitted != intervals*b.N {
				b.Fatalf("emitted %d intervals, want %d", emitted, intervals*b.N)
			}
		})
	}
}
