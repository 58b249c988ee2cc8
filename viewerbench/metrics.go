package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// tailPercentiles are the percentiles the benchmark may report, highest
// first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// supportedPercentile returns the highest of tailPercentiles that keeps at
// least ten of n samples beyond it, and false when even the median does
// not. A p95 therefore needs n ≥ 200 and a p99 n ≥ 1000.
func supportedPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the same rule as stats.Sample). xs is sorted in
// place. An empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return xs[lo] + (xs[hi]-xs[lo])*(rank-float64(lo))
}

// median is percentile(xs, 50) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// arrivals returns n open-loop arrival offsets spread over window: one per
// slot of window/n, at a uniformly random point of its slot. The schedule
// is a pure function of rng's seed, and concurrency stays steady, unlike a
// Poisson process whose bursts would make the live heap and the frame rate
// depend on where a seed's bursts fall.
func arrivals(rng *stats.RNG, n int, window time.Duration) []time.Duration {
	slot := float64(window) / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out
}

// zipfDemand assigns n requests to k documents in exact Zipf(s)
// proportion (largest remainders; document 0 is the hottest) and returns
// them in a seeded random order. Fixing the shares keeps the fan-out degree
// of every seed alike; only the join order varies.
func zipfDemand(rng *stats.RNG, n, k int, s float64) []int {
	type share struct {
		doc   int
		count int
		rem   float64
	}
	shares := make([]share, k)
	var sum float64
	for i := range shares {
		sum += 1 / math.Pow(float64(i+1), s)
	}
	left := n
	for i := range shares {
		exact := float64(n) / math.Pow(float64(i+1), s) / sum
		shares[i] = share{doc: i, count: int(exact), rem: exact - math.Floor(exact)}
		left -= shares[i].count
	}
	sort.SliceStable(shares, func(a, b int) bool { return shares[a].rem > shares[b].rem })
	for i := 0; i < left; i++ {
		shares[i].count++
	}
	out := make([]int, 0, n)
	for _, sh := range shares {
		for j := 0; j < sh.count; j++ {
			out = append(out, sh.doc)
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
