package analysis

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSummarizeChurnAndJaccard reads the two set-over-time fields off
// elephant patterns ('E' = elephant, '.' = mouse, one string per flow).
// Reclassifications counts a flow's first entry and every later entry
// as a promotion and every exit as a demotion; SetJaccard is the mean
// Jaccard similarity of consecutive sets.
func TestSummarizeChurnAndJaccard(t *testing.T) {
	cases := []struct {
		name     string
		patterns map[int]string
		reclass  int
		jaccard  float64
	}{
		// Flow 0: enter, stay, exit, enter; flow 1: enter, exit.
		{"entries and exits", map[int]string{0: "EE.E", 1: "..E."}, 5, 1.0 / 3},
		{"frozen set", map[int]string{0: "EEEE", 1: "EEEE"}, 2, 1},
		{"disjoint alternation", map[int]string{0: "E.E.", 1: ".E.E"}, 7, 0},
		// {0,1} -> {0,2}: intersection 1, union 3.
		{"partial overlap", map[int]string{0: "EE", 1: "E.", 2: ".E"}, 4, 1.0 / 3},
		{"two empty sets", map[int]string{0: ".."}, 0, 1},
		{"one interval", map[int]string{0: "E"}, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Summarize(resultsFromPattern(tc.patterns), 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if s.Reclassifications != tc.reclass {
				t.Errorf("Reclassifications = %d, want %d", s.Reclassifications, tc.reclass)
			}
			if s.SetJaccard != tc.jaccard {
				t.Errorf("SetJaccard = %v, want %v", s.SetJaccard, tc.jaccard)
			}
		})
	}
}

// TestHoldingTimesFoldOrder pins MeanHolding to one bit pattern: the
// per-flow averages summed in core.ComparePrefix order, whatever order
// a map of flows would hand them out in.
func TestHoldingTimesFoldOrder(t *testing.T) {
	const flows, intervals = 300, 24
	rng := rand.New(rand.NewSource(1))
	patterns := make(map[int]string, flows)
	for f := 0; f < flows; f++ {
		b := make([]byte, intervals)
		for i := range b {
			b[i] = '.'
			if rng.Intn(3) < 2 {
				b[i] = 'E'
			}
		}
		patterns[f] = string(b)
	}
	var sum float64
	var n int
	for f := 0; f < flows; f++ {
		if f > 0 && core.ComparePrefix(pfx(f-1), pfx(f)) >= 0 {
			t.Fatalf("pfx(%d) does not sort before pfx(%d)", f-1, f)
		}
		seq := make([]bool, intervals)
		for i, c := range patterns[f] {
			seq[i] = c == 'E'
		}
		runs := runLengths(seq)
		if len(runs) == 0 {
			continue
		}
		total := 0
		for _, r := range runs {
			total += r
		}
		sum += float64(total) / float64(len(runs))
		n++
	}
	want := math.Float64bits(sum / float64(n))

	res := resultsFromPattern(patterns)
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		seen[math.Float64bits(HoldingTimes(res, 0, intervals).MeanHolding)]++
	}
	if len(seen) != 1 || seen[want] != 200 {
		t.Errorf("MeanHolding took %d bit patterns over 200 calls, want only %d: %v", len(seen), want, seen)
	}
}

// TestBusySlotsAndCV pins the two helpers behind every row: the
// five-hour busy period in slots (at least one; 60 for a non-positive
// interval) and the coefficient of variation (0 for a mean at or below
// zero).
func TestBusySlotsAndCV(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		want     int
	}{
		{0, 60}, {-time.Minute, 60}, {time.Nanosecond, int(5 * time.Hour)}, {time.Minute, 300}, {6 * time.Hour, 1},
	} {
		if got := busySlots(tc.interval); got != tc.want {
			t.Errorf("busySlots(%v) = %d, want %d", tc.interval, got, tc.want)
		}
	}
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{0, 0}, 0}, {[]float64{-1, 0}, 0}, {[]float64{0.25, 0.75}, 0.5},
	} {
		if got := cv(tc.xs); got != tc.want {
			t.Errorf("cv(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
