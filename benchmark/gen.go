package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// Every workload input is drawn from the -seed flag and the segment
// number alone. Each purpose gets its own PCG stream, so adding draws to
// one stream never shifts another, and each segment of a run gets its
// own inputs.
const (
	streamPicks uint64 = iota + 1
	streamArrivals
	// streamLadder is the first of the ladder steps' streams, one per
	// step, so it stays last.
	streamLadder
)

func stream(seed int64, segment int, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(segment)<<32|purpose))
}

// weighted draws index i with probability w[i]/sum(w).
func weighted(r *rand.Rand, w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	u := r.Float64() * total
	for i, x := range w {
		if u < x {
			return i
		}
		u -= x
	}
	return len(w) - 1
}

// picker yields an endless seeded sequence of picks dealt from a deck
// holding counts[i] cards of index i, reshuffled each time it runs out.
// The seed decides the order; every block of sum(counts) picks holds
// the same mix, so a run's share of each input never drifts from it.
type picker struct {
	r    *rand.Rand
	deck []int
	pos  int
}

func newPicker(seed int64, segment int, counts []int) *picker {
	p := &picker{r: stream(seed, segment, streamPicks)}
	for i, c := range counts {
		for range c {
			p.deck = append(p.deck, i)
		}
	}
	p.pos = len(p.deck)
	return p
}

func (p *picker) next() int {
	if p.pos == len(p.deck) {
		p.r.Shuffle(len(p.deck), func(i, j int) { p.deck[i], p.deck[j] = p.deck[j], p.deck[i] })
		p.pos = 0
	}
	p.pos++
	return p.deck[p.pos-1]
}

// arrivals returns round(rate*span) due times drawn uniformly over
// [0, span) and sorted: a Poisson process at that rate, conditioned on
// its count so that every seed offers the same number of jobs.
func arrivals(r *rand.Rand, rate float64, span time.Duration) []time.Duration {
	n := int(math.Round(rate * span.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(span)))
	}
	slices.Sort(out)
	return out
}
