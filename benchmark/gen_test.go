package main

import (
	"slices"
	"testing"
	"time"
)

// inputs draws the first picks of every workload's generator and the
// serve schedule for one seed and segment.
func inputs(seed int64, segment int) (picks []int, sched []arrival) {
	for _, counts := range [][]int{{3, 3, 3, 3, 3, 3, 3, 7}, campaignMix} {
		p := newPicker(seed, segment, counts)
		for range 200 {
			picks = append(picks, p.next())
		}
	}
	return picks, schedule(seed, segment, streamArrivals, []float64{0.5, 0.2, 0.2, 0.1}, serveRate, 5*time.Second)
}

func TestGeneratorIsSeeded(t *testing.T) {
	p1, s1 := inputs(1, 0)
	p1b, s1b := inputs(1, 0)
	if !slices.Equal(p1, p1b) || !slices.Equal(s1, s1b) {
		t.Fatal("seed 1 gave two different input sequences")
	}
	for _, other := range []struct {
		seed    int64
		segment int
	}{{2, 0}, {1, 1}} {
		p, s := inputs(other.seed, other.segment)
		if slices.Equal(p1, p) || slices.Equal(s1, s) {
			t.Fatalf("seed %d segment %d gave the same input sequence as seed 1 segment 0", other.seed, other.segment)
		}
	}
}

func TestPickerKeepsTheMixInEveryBlock(t *testing.T) {
	counts := []int{3, 1, 2}
	p := newPicker(5, 0, counts)
	var orders [][]int
	for range 4 {
		var block []int
		got := make([]int, len(counts))
		for range 6 {
			i := p.next()
			block = append(block, i)
			got[i]++
		}
		if !slices.Equal(got, counts) {
			t.Fatalf("block %v holds %v of each index, want %v", block, got, counts)
		}
		orders = append(orders, block)
	}
	if slices.EqualFunc(orders[1:], orders[:3], slices.Equal[[]int]) {
		t.Errorf("every block dealt in the same order %v", orders[0])
	}
}

func TestScheduleOffersFixedLoad(t *testing.T) {
	sched := schedule(7, 0, streamArrivals, []float64{1, 1}, 100, 3*time.Second)
	jobs, reads := 0, 0
	for i, a := range sched {
		if i > 0 && a.due < sched[i-1].due {
			t.Fatalf("arrival %d due %v before arrival %d (%v)", i, a.due, i-1, sched[i-1].due)
		}
		if a.input < 0 {
			reads++
		} else {
			jobs++
		}
	}
	if jobs != 300 || reads != 2 {
		t.Fatalf("%d jobs and %d reads in 3 s at 100/s, want 300 and 2", jobs, reads)
	}
}
