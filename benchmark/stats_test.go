package main

import (
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, want := range []float64{0.9, 0.95, 0.99} {
		for n := 1; n <= 3000; n++ {
			q := tailQuantile(n, want)
			if q > want || q < 0.5 {
				t.Fatalf("n=%d want=%g: quantile %g outside [0.5, want]", n, want, q)
			}
			if q == 0.5 {
				continue // too few samples for any tail: the median stands in
			}
			beyond := n - (rank(n, q) + 1)
			if beyond < minBeyond {
				t.Fatalf("n=%d want=%g: p%g has only %d samples beyond it", n, want, q*100, beyond)
			}
			if q < want && beyond != minBeyond {
				t.Fatalf("n=%d want=%g: lowered to p%g with %d beyond, want exactly %d", n, want, q*100, beyond, minBeyond)
			}
		}
	}
	if q := tailQuantile(1000, 0.99); q != 0.99 {
		t.Errorf("1000 samples: p%g, want p99", q*100)
	}
	if q := tailQuantile(500, 0.99); q != 0.98 {
		t.Errorf("500 samples: p%g, want p98", q*100)
	}
}

func TestMixedMedianWeighsEachKindsMedian(t *testing.T) {
	fast := latencies{1, 1, 2, 100}
	slow := latencies{10, 20, 30}
	// Per-kind medians 1 and 20, weighted 3:1; an empty kind is left out.
	if got := mixedMedian([]latencies{fast, slow, nil}, []float64{3, 1, 5}); got != 5.75 {
		t.Fatalf("mixed median %g, want 5.75", got)
	}
	// The pooled median of the same samples sits wherever the counts put
	// it; the mixed median does not depend on them.
	if got := mixedMedian([]latencies{append(fast, fast...), slow}, []float64{3, 1}); got != 5.75 {
		t.Fatalf("mixed median %g after doubling one kind's samples, want 5.75", got)
	}
}

func TestSummarizeReportsNearestRank(t *testing.T) {
	var l latencies
	for i := 1; i <= 200; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	s := l.summarize(0.99)
	if s.N != 200 || s.P50 != 100 || s.TailPct != 0.95 || s.Tail != 190 {
		t.Fatalf("summary %+v, want n=200 p50=100 p95=190", s)
	}
	if got := pctLabel(s.TailPct); got != "p95" {
		t.Errorf("label %q, want p95", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median %g, want 2.5", got)
	}
}
