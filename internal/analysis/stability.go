package analysis

import "repro/internal/core"

// SetStability quantifies how much the elephant *membership* changes
// between consecutive intervals — the quantity a traffic-engineering
// controller pays for, since every membership change is a potential
// reroute. It complements the count/fraction series: a scheme can hold
// the count rock-steady (top-K does, by construction) while churning
// the members underneath.
type SetStability struct {
	// MeanJaccard is the average Jaccard similarity of consecutive
	// elephant sets (1 = frozen membership).
	MeanJaccard float64
	// MinJaccard is the worst consecutive-interval similarity.
	MinJaccard float64
	// MeanTurnover is the average number of members entering plus
	// leaving per interval.
	MeanTurnover float64
}

// Stability computes SetStability over a result sequence. Sequences
// shorter than two intervals return the zero value.
func Stability(results []core.Result) SetStability {
	if len(results) < 2 {
		return SetStability{}
	}
	var st SetStability
	st.MinJaccard = 1
	n := 0
	for i := 1; i < len(results); i++ {
		prev, cur := results[i-1].Elephants, results[i].Elephants
		// Both member lists are ComparePrefix-sorted, so the
		// intersection is one linear merge rather than a binary search
		// per member.
		pf, cf := prev.Flows(), cur.Flows()
		inter := 0
		for a, b := 0, 0; a < len(pf) && b < len(cf); {
			switch c := core.ComparePrefix(pf[a], cf[b]); {
			case c == 0:
				inter++
				a++
				b++
			case c < 0:
				a++
			default:
				b++
			}
		}
		union := prev.Len() + cur.Len() - inter
		j := 1.0
		if union > 0 {
			j = float64(inter) / float64(union)
		}
		st.MeanJaccard += j
		if j < st.MinJaccard {
			st.MinJaccard = j
		}
		st.MeanTurnover += float64(union - inter)
		n++
	}
	st.MeanJaccard /= float64(n)
	st.MeanTurnover /= float64(n)
	return st
}
