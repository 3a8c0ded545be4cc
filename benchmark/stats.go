package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the percentile is an outlier, not a tail.
const minBeyond = 10

// rank returns the nearest-rank index of quantile q among n sorted
// samples: the smallest index i with (i+1)/n >= q.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return max(0, min(n-1, i))
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// tailQuantile returns the quantile to report as the tail of n samples:
// want, lowered until at least minBeyond samples lie beyond it, and
// never below the median.
func tailQuantile(n int, want float64) float64 {
	if n == 0 {
		return 0.5
	}
	return max(0.5, min(want, float64(n-minBeyond)/float64(n)))
}

// pctLabel renders a quantile as a percentile name: 0.99 -> "p99".
func pctLabel(q float64) string {
	return "p" + fmt.Sprintf("%g", math.Round(q*1000)/10)
}

// latencies accumulates operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// summary is the median and tail of a latency sample.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

func (l latencies) summarize(wantTail float64) summary {
	s := slices.Clone([]float64(l))
	slices.Sort(s)
	q := tailQuantile(len(s), wantTail)
	return summary{N: len(s), P50: percentile(s, 0.5), Tail: percentile(s, q), TailPct: q}
}

// quantile is the nearest-rank q-quantile of the sample.
func (l latencies) quantile(q float64) float64 {
	s := slices.Clone([]float64(l))
	slices.Sort(s)
	return percentile(s, q)
}

// mixedMedian is the median latency of each kind of operation, averaged
// with the kinds' weights in the mix; kinds without samples are left
// out. Unlike the median of the pooled sample, it does not jump from one
// kind's latency to another's when the pooled median lies between two
// kinds, so it moves only when some kind of operation got faster or
// slower.
func mixedMedian(byKind []latencies, weights []float64) float64 {
	var sum, total float64
	for i, l := range byKind {
		if len(l) > 0 {
			sum += weights[i] * l.quantile(0.5)
			total += weights[i]
		}
	}
	return ratio(sum, total)
}

// pooled is every kind's latencies in one sample.
func pooled(byKind []latencies) latencies {
	var all latencies
	for _, l := range byKind {
		all = append(all, l...)
	}
	return all
}

// median of xs; the mean of the middle two for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
