package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram: exact below 128 ns, then 64
// sub-buckets per power of two (under 1.6% bucket width relative to the
// value), up to 2^40 ns; longer values land in the last bucket.
// Percentiles interpolate linearly inside the bucket that holds the
// requested rank, so two runs with the same shape but different samples
// do not collapse onto identical bucket edges. It is kept small (17 KiB)
// because the store workload's per-window histograms live in the
// process whose peak RSS it reports.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 64
	histBuckets = (40 - 5) * histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	shift := bits.Len64(uint64(v)) - 7
	if shift < 0 {
		shift = 0
	}
	return min(shift*histSub+int(uint64(v)>>uint(shift)), histBuckets-1)
}

// histBounds returns the lower edge and width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	m := i - shift*histSub
	return float64(uint64(m) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// pct is one reported percentile: the value, the sample count it was
// taken from, and whether at least minBeyond samples lie beyond it.
type pct struct {
	Value float64
	N     uint64
	OK    bool
}

// minBeyond is the reporting rule for tail percentiles: a percentile is
// only reported when at least this many samples lie above it, so a p99
// needs 1000 samples and a p999 needs 10000.
const minBeyond = 10

// supported reports whether percentile q (0..1) of n samples has at
// least minBeyond samples beyond it.
func supported(q float64, n uint64) bool {
	if n == 0 {
		return false
	}
	rank := uint64(math.Ceil(q * float64(n)))
	return n-rank >= minBeyond
}

func (h *hist) pct(q float64) pct {
	p := pct{N: h.n, OK: supported(q, h.n)}
	if !p.OK {
		return p
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := histBounds(i)
			p.Value = lo + w*(target-cum)/float64(c)
			return p
		}
		cum += float64(c)
	}
	return p
}

// median returns the middle of xs (mean of the middle two when even),
// leaving xs reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
