package main

import (
	"errors"
	"testing"
	"time"
)

func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	const work = 40 * time.Millisecond
	sched := []arrival{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {300 * time.Millisecond, 0}}
	recs, err := openLoop(sched, time.Now(), 2, func(int, time.Time, *record) error {
		time.Sleep(work)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two clients take the first two arrivals on time; the next two wait
	// for a free client, so they start a job's work late and finish two
	// jobs' work after they were due.
	for i, r := range recs[:2] {
		if r.latency < work {
			t.Errorf("arrival %d: latency %v, want at least %v", i, r.latency, work)
		}
	}
	for i, r := range recs[2:4] {
		if r.late < work || r.latency < 2*work {
			t.Errorf("arrival %d: late %v, latency %v; want at least %v and %v", i+2, r.late, r.latency, work, 2*work)
		}
	}
	// The last arrival is due after the backlog cleared.
	if r := recs[4]; r.late > 100*time.Millisecond {
		t.Errorf("arrival after the backlog started %v late", r.late)
	}
}

func TestOpenLoopStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	sched := []arrival{{0, -1}, {0, 0}, {0, 0}}
	_, err := openLoop(sched, time.Now(), 1, func(i int, _ time.Time, _ *record) error {
		if sched[i].input < 0 {
			return boom
		}
		t.Error("the client kept going after an error")
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want %v", err, boom)
	}
}
