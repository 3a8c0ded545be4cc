package faults

import (
	"testing"
	"time"
)

// FuzzFaultSchedule drives arbitrary strings through the schedule
// codec and an armed injector. The invariants the chaos harness rests
// on:
//
//   - any accepted schedule round-trips byte-identically through String
//   - an armed injector never blocks: every Request/OnGrant decision
//     returns immediately and within the schedule's own bounds
//   - drop/corrupt ops fire at most once, delays on every request
//
// The committed seeds under testdata/fuzz include the pinned schedule
// CI's chaos-smoke runs and the canonical rejection shapes.
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range []string{
		"none",
		"drop:lease/2",
		"delay:heartbeat/50ms",
		"corrupt:complete/1",
		"crash:worker1@shard3",
		"drop:lease/2;delay:heartbeat/50ms;crash:worker1@shard3;corrupt:complete/1",
		"crash:chaos-a@shard2;drop:lease/3;corrupt:complete/1;delay:lease/5ms",
		"drop:lease/0",      // rejected: 1-based ordinals
		"drop:lease/+1",     // rejected: non-canonical
		"delay:lease/0.05s", // rejected: non-canonical duration
		"delay:image/50ms",  // rejected: retired path
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog string) {
		sched, err := Parse(prog)
		if err != nil {
			return // rejected schedule: nothing to arm
		}
		s := sched.String()
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse accepted %q, but its String %q does not re-parse: %v", prog, s, err)
		}
		if again.String() != s {
			t.Fatalf("schedule round trip changed: %q -> %q", s, again.String())
		}

		// Injection must terminate and stay within the schedule's own
		// bounds: total delay per request can't exceed the sum of delay
		// ops, and one-shot ops fire at most once across any request
		// sequence.
		in := NewInjector(sched, nil)
		var maxDelay int64
		oneShot := 0
		for _, op := range sched {
			switch op := op.(type) {
			case Delay:
				maxDelay += int64(op.Dur)
			case Drop:
				oneShot++
			case Corrupt:
				oneShot++
			case Crash:
				oneShot++
			}
		}
		fired := 0
		for i := 0; i < 2*MaxOrdinal && i < 64; i++ {
			for _, p := range Paths() {
				act := in.Request(p)
				if act.Delay > maxDelay {
					t.Fatalf("request delay %v exceeds schedule total %v", time.Duration(act.Delay), time.Duration(maxDelay))
				}
				if act.Drop {
					fired++
				}
				if act.Corrupt {
					fired++
				}
			}
			if in.OnGrant("worker1") {
				fired++
			}
			if in.OnGrant("chaos-a") {
				fired++
			}
		}
		if fired > oneShot {
			t.Fatalf("one-shot ops fired %d times, schedule holds %d", fired, oneShot)
		}
	})
}
