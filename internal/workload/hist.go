package workload

import "math/bits"

// Hist is a deterministic log-bucketed histogram of non-negative int64
// samples (latencies in virtual nanoseconds). Buckets are HDR-style: exact
// for values below 2^histSubBits, then histSub sub-buckets per power-of-two
// octave, bounding the relative quantization error at 1/histSub (~3%).
// Everything is integer arithmetic on fixed bucket boundaries, so two runs
// that record the same samples — in any order — produce bit-identical
// counts and quantiles; this is what makes the latency baselines exact
// drift gates rather than tolerance checks.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// histBuckets covers the full non-negative int64 range: histSub exact
	// small-value buckets plus (63 - histSubBits) octaves of histSub.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// Hist records samples; the zero value is ready to use.
type Hist struct {
	counts [histBuckets]int64
	n      int64
}

// histBucketOf maps a sample to its bucket index. Negative samples clamp to
// zero (they cannot occur for latencies; the clamp keeps the histogram total
// consistent regardless).
func histBucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1)), exp >= histSubBits
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return histSub + (exp-histSubBits)*histSub + sub
}

// histBucketLow returns the smallest value mapped to bucket i — the value a
// quantile query reports for samples landing in that bucket.
func histBucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := histSubBits + (i-histSub)/histSub
	sub := (i - histSub) % histSub
	return int64(histSub+sub) << (uint(exp) - histSubBits)
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	h.counts[histBucketOf(v)]++
	h.n++
}

// Quantile returns the histogram's num/den quantile: the lower bound of the
// bucket holding the ceil(n*num/den)-th smallest sample (e.g. Quantile(999,
// 1000) is p99.9). It returns 0 on an empty histogram.
func (h *Hist) Quantile(num, den int64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := (h.n*num + den - 1) / den
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			return histBucketLow(i)
		}
	}
	// Unreachable: cum reaches h.n >= rank.
	return histBucketLow(histBuckets - 1)
}
