package analysis

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestStabilityFrozenSet(t *testing.T) {
	res := resultsFromPattern(map[int]string{0: "EEEE", 1: "EEEE"})
	st := Stability(res)
	if st.MeanJaccard != 1 || st.MinJaccard != 1 || st.MeanTurnover != 0 {
		t.Errorf("frozen set: %+v", st)
	}
}

func TestStabilityFullChurn(t *testing.T) {
	// Alternating disjoint sets: jaccard 0, turnover 2 per step.
	res := resultsFromPattern(map[int]string{0: "E.E.", 1: ".E.E"})
	st := Stability(res)
	if st.MeanJaccard != 0 || st.MinJaccard != 0 {
		t.Errorf("disjoint sets: %+v", st)
	}
	if st.MeanTurnover != 2 {
		t.Errorf("turnover = %v, want 2", st.MeanTurnover)
	}
}

func TestStabilityPartial(t *testing.T) {
	// {0,1} -> {0,2}: inter 1, union 3 -> jaccard 1/3, turnover 2.
	res := resultsFromPattern(map[int]string{0: "EE", 1: "E.", 2: ".E"})
	st := Stability(res)
	if math.Abs(st.MeanJaccard-1.0/3) > 1e-12 {
		t.Errorf("jaccard = %v, want 1/3", st.MeanJaccard)
	}
	if st.MeanTurnover != 2 {
		t.Errorf("turnover = %v", st.MeanTurnover)
	}
}

func TestStabilityShortInput(t *testing.T) {
	if st := Stability([]core.Result{{}}); st != (SetStability{}) {
		t.Errorf("short input: %+v", st)
	}
}

func TestStabilityEmptySets(t *testing.T) {
	res := []core.Result{
		{Elephants: core.ElephantSet{}},
		{Elephants: core.ElephantSet{}},
	}
	st := Stability(res)
	if st.MeanJaccard != 1 {
		t.Errorf("two empty sets are identical: %+v", st)
	}
}
