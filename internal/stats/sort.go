package stats

import (
	"math"
	"slices"
)

const (
	// radixBits is the digit width of SortPositive's passes and
	// radixKeyShift the low bits they leave out: three 11-bit digits
	// cover bits 31–63 of the pattern — sign, exponent and the top 21
	// mantissa bits.
	radixBits     = 11
	radixMask     = 1<<radixBits - 1
	radixKeyShift = 64 - 3*radixBits
	// maxInsertionRun bounds the fix-up's quadratic step: a run of
	// elements agreeing on every radix digit is insertion-sorted up to
	// this length and handed to the comparison sort beyond it.
	maxInsertionRun = 16
)

// SortPositive sorts xs ascending in place. xs must hold strictly
// positive float64s (+Inf, the largest pattern, sorts last); tmp is ping-pong storage with len(tmp) >=
// len(xs). For positive IEEE-754 doubles the unsigned bit-pattern order
// equals numeric order, so sorting by bit pattern yields exactly the
// sequence a comparison sort would (duplicates have identical bit
// patterns, making stability unobservable). Measured bandwidths rarely
// agree on their top 33 bits without being equal, so the sort runs three
// 11-bit LSD radix passes over those bits only and then settles the few
// elements that tie there by comparison — O(n) on such input and O(n
// log n) at worst, where the comparison sort it replaced dominated the
// aest detect stage's profile. Callers off the hot path, or with
// possibly non-positive values, should use sort.Float64s instead.
func SortPositive(xs, tmp []float64) {
	n := len(xs)
	if n < 128 || uint64(n) > math.MaxUint32 {
		// Below the radix break-even (or beyond its 32-bit counters);
		// output is identical either way.
		slices.Sort(xs)
		return
	}
	tmp = tmp[:n]
	var counts [3][1 << radixBits]uint32
	for _, x := range xs {
		k := math.Float64bits(x) >> radixKeyShift
		counts[0][k&radixMask]++
		counts[1][(k>>radixBits)&radixMask]++
		counts[2][k>>(2*radixBits)]++
	}
	src, dst := xs, tmp
	for d := 0; d < 3; d++ {
		c := &counts[d]
		shift := radixKeyShift + radixBits*d
		// A digit where every element agrees (common in the exponent
		// bits of same-magnitude samples) permutes nothing.
		if c[(math.Float64bits(src[0])>>shift)&radixMask] == uint32(n) {
			continue
		}
		var sum uint32
		for i := range c {
			c[i], sum = sum, sum+c[i]
		}
		for _, x := range src {
			k := (math.Float64bits(x) >> shift) & radixMask
			dst[c[k]] = x
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	// Fix-up: xs is ordered by its top 33 bits, so any inversion left
	// lies inside a run of elements sharing them.
	for i := 1; i < n; i++ {
		if xs[i] >= xs[i-1] {
			continue
		}
		key := math.Float64bits(xs[i]) >> radixKeyShift
		lo, hi := i-1, i+1
		for lo > 0 && math.Float64bits(xs[lo-1])>>radixKeyShift == key {
			lo--
		}
		for hi < n && math.Float64bits(xs[hi])>>radixKeyShift == key {
			hi++
		}
		if run := xs[lo:hi]; len(run) > maxInsertionRun {
			slices.Sort(run)
		} else {
			for a := 1; a < len(run); a++ {
				for b := a; b > 0 && run[b] < run[b-1]; b-- {
					run[b], run[b-1] = run[b-1], run[b]
				}
			}
		}
		i = hi - 1
	}
}
