package analysis

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/core"
)

func pfx(i int) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
}

// resultsFromPattern builds a result sequence from per-flow elephant
// patterns ('E' = elephant, '.' = mouse), all patterns equal length.
func resultsFromPattern(patterns map[int]string) []core.Result {
	n := 0
	for _, p := range patterns {
		n = len(p)
	}
	out := make([]core.Result, n)
	for t := range out {
		var members []netip.Prefix
		for id, p := range patterns {
			if p[t] == 'E' {
				members = append(members, pfx(id))
			}
		}
		out[t] = core.Result{Interval: t, Elephants: core.NewElephantSet(members...), TotalLoad: 1}
	}
	return out
}

func TestStateSequences(t *testing.T) {
	res := resultsFromPattern(map[int]string{
		0: "EE..E",
		1: ".....",
		2: "..E..",
	})
	seqs := stateSequences(res, 0, 5)
	if len(seqs) != 2 {
		t.Fatalf("tracked flows = %d, want 2 (flow 1 was never an elephant)", len(seqs))
	}
	want0 := []bool{true, true, false, false, true}
	for i, v := range want0 {
		if seqs[pfx(0)][i] != v {
			t.Errorf("flow 0 seq[%d] = %v", i, seqs[pfx(0)][i])
		}
	}
}

func TestStateSequencesWindowClamping(t *testing.T) {
	res := resultsFromPattern(map[int]string{0: "EEE"})
	for _, from := range []int{-5, -1} {
		if got := stateSequences(res, from, 99); len(got[pfx(0)]) != 3 {
			t.Errorf("from %d: clamped window length = %d", from, len(got[pfx(0)]))
		}
	}
	if got := stateSequences(res, 2, 2); got != nil {
		t.Errorf("empty window returned %v", got)
	}
}

func TestRunLengths(t *testing.T) {
	cases := []struct {
		seq  string
		want []int
	}{
		{"", nil},
		{".....", nil},
		{"E....", []int{1}},
		{"EEEEE", []int{5}},
		{"EE.EE", []int{2, 2}},
		{"E.E.E", []int{1, 1, 1}},
		{"..EEE", []int{3}}, // run open at the right edge counts
	}
	for _, tc := range cases {
		seq := make([]bool, len(tc.seq))
		for i, c := range tc.seq {
			seq[i] = c == 'E'
		}
		got := runLengths(seq)
		if len(got) != len(tc.want) {
			t.Errorf("%q: runs = %v, want %v", tc.seq, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%q: runs = %v, want %v", tc.seq, got, tc.want)
			}
		}
	}
}

func TestHoldingTimes(t *testing.T) {
	res := resultsFromPattern(map[int]string{
		0: "EEEE....", // one visit of 4
		1: "E..E..E.", // three visits of 1 -> single-interval flow
		2: "EE..EE..", // two visits of 2
		3: "........", // never an elephant
	})
	st := HoldingTimes(res, 0, 8)
	if st.Flows != 3 {
		t.Fatalf("Flows = %d, want 3", st.Flows)
	}
	if want := []float64{4, 1, 2}; !slices.Equal(st.Averages, want) {
		t.Errorf("Averages = %v, want %v (flows 0, 1, 2 in prefix order)", st.Averages, want)
	}
	if st.SingleIntervalFlows != 1 {
		t.Errorf("SingleIntervalFlows = %d, want 1 (only flow 1)", st.SingleIntervalFlows)
	}
	if want := (4.0 + 1 + 2) / 3; math.Abs(st.MeanHolding-want) > 1e-12 {
		t.Errorf("MeanHolding = %v, want %v", st.MeanHolding, want)
	}
	// One flow's mean is its own; no flow's is 0, not NaN.
	if st := HoldingTimes(res, 2, 3); st.Flows != 1 || st.MeanHolding != 1 {
		t.Errorf("interval 2 alone: Flows = %d, MeanHolding = %v, want 1, 1", st.Flows, st.MeanHolding)
	}
	if st := HoldingTimes(res, 8, 8); st.Flows != 0 || st.MeanHolding != 0 {
		t.Errorf("empty window: Flows = %d, MeanHolding = %v, want 0, 0", st.Flows, st.MeanHolding)
	}
}

func TestHoldingHistogram(t *testing.T) {
	res := resultsFromPattern(map[int]string{
		0: "EEEE....",
		1: "E.......",
		2: "EE......",
	})
	st := HoldingTimes(res, 0, 8)
	h := st.HoldingHistogram(3) // bins [0,1) [1,2) [2,3)+overflow-clamp
	if h[1] != 1 {              // flow 1: avg 1
		t.Errorf("bin 1 = %d", h[1])
	}
	if h[2] != 2 { // flow 2: avg 2; flow 0: avg 4 clamped into last bin
		t.Errorf("bin 2 = %d (flow 2 plus clamped flow 0)", h[2])
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 3 {
		t.Errorf("histogram total = %d, want 3", total)
	}
}

func TestBusyWindow(t *testing.T) {
	res := make([]core.Result, 10)
	loads := []float64{1, 1, 5, 9, 9, 5, 1, 1, 1, 1}
	for i := range res {
		res[i] = core.Result{Interval: i, TotalLoad: loads[i]}
	}
	from, to, err := BusyWindow(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 || to != 5 {
		t.Errorf("busy window = [%d,%d), want [2,5)", from, to)
	}
}

func TestBusyWindowWholeSeries(t *testing.T) {
	res := make([]core.Result, 4)
	from, to, err := BusyWindow(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 || to != 4 {
		t.Errorf("window = [%d,%d)", from, to)
	}
}

func TestBusyWindowErrors(t *testing.T) {
	res := make([]core.Result, 3)
	if _, _, err := BusyWindow(res, 0); err == nil {
		t.Error("window 0 accepted")
	}
	if _, _, err := BusyWindow(res, 4); err == nil {
		t.Error("window beyond series accepted")
	}
}

func TestMeans(t *testing.T) {
	if MeanInt(nil) != 0 || MeanFloat(nil) != 0 {
		t.Error("empty means must be 0")
	}
	if got := MeanInt([]int{1, 2, 3}); got != 2 {
		t.Errorf("MeanInt = %v", got)
	}
	if got := MeanFloat([]float64{1, 2}); got != 1.5 {
		t.Errorf("MeanFloat = %v", got)
	}
}
