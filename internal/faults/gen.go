package faults

import (
	"math/rand"
	"time"
)

// GenOptions shape a generated schedule.
type GenOptions struct {
	// Workers are the worker names crash ops may target; empty disables
	// crash ops (client-side transports cannot observe lease grants).
	Workers []string
	// MaxDelay caps generated delay durations (default 5ms — generated
	// schedules are property-test fodder and must stay fast; pin longer
	// delays by hand when you want them).
	MaxDelay time.Duration
	// Ops bounds the op count (default 4, max MaxOps).
	Ops int
}

// Generate derives a deterministic fault schedule from a seed: a mix of
// drops, delays, and corruptions over the wire paths, plus worker
// crashes when opts.Workers is non-empty. The result always satisfies
// the codec — Parse(Generate(seed, o).String()) round-trips — and the
// same seed always yields the same schedule, so a failing corpus entry
// reproduces from its seed alone.
func Generate(seed int64, opts GenOptions) Schedule {
	rng := rand.New(rand.NewSource(seed))
	maxDelay := opts.MaxDelay
	if maxDelay < time.Millisecond {
		maxDelay = 5 * time.Millisecond
	}
	if maxDelay > MaxDelay {
		maxDelay = MaxDelay
	}
	nops := opts.Ops
	if nops <= 0 {
		nops = 4
	}
	if nops > MaxOps {
		nops = MaxOps
	}
	kinds := 3
	if len(opts.Workers) > 0 {
		kinds = 4
	}
	paths := Paths()
	sched := make(Schedule, 0, nops)
	// 1 + rng.Intn(nops) ops: never empty — the empty schedule is the
	// baseline every other corpus entry is compared against.
	for i, n := 0, 1+rng.Intn(nops); i < n; i++ {
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(kinds) {
		case 0:
			sched = append(sched, Drop{Path: p, N: 1 + rng.Intn(4)})
		case 1:
			// Milliseconds only: time.Duration's String spelling of a
			// whole-millisecond value is canonical by construction.
			d := time.Duration(1+rng.Int63n(int64(maxDelay/time.Millisecond))) * time.Millisecond
			sched = append(sched, Delay{Path: p, Dur: d})
		case 2:
			sched = append(sched, Corrupt{Path: p, N: 1 + rng.Intn(4)})
		case 3:
			w := opts.Workers[rng.Intn(len(opts.Workers))]
			sched = append(sched, Crash{Worker: w, N: 1 + rng.Intn(3)})
		}
	}
	return sched
}
