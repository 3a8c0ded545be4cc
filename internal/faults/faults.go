// Package faults is the deterministic fault-injection subsystem for
// distributed campaigns: a seeded, strictly-codec'd schedule DSL whose
// programs inject partial failures at the distrib wire boundary —
// dropped requests, delivery delays, corrupted transfers, and worker
// crashes — so the coordinator/worker protocol can be proven
// convergent under any schedule, not just in the absence of faults.
//
// A schedule is a ";"-separated list of ops over the three wire paths
// (lease, complete, heartbeat).
//
//	drop:lease/2            fail the 2nd lease request outright
//	delay:heartbeat/50ms    delay every heartbeat by 50ms
//	corrupt:complete/1      flip a byte in the 1st completion transfer
//	crash:worker1@shard3    kill worker1 when it is granted its 3rd lease
//
// The codec is strict and canonical exactly like internal/errmodel and
// internal/multiuser schedules: Parse(p.String()) round-trips
// byte-identically, non-canonical spellings ("+1", "007", "0.05s") are
// rejected, and the empty schedule spells "none". Schedules arrive as
// CLI flags, native-fuzz inputs, and generated property-test corpora,
// and all three must agree on the same bytes.
//
// Injection is delivered two ways, both driven by one Injector:
// client-side by wrapping the worker's http.RoundTripper in a
// Transport, and server-side by arming distrib.PoolOptions.Faults so
// the coordinator's handlers consult the injector before serving.
// Either way the fault decision is a pure function of the schedule and
// the per-path request ordinals, so a given schedule misbehaves the
// same way on every run.
package faults

import (
	"fmt"
	"strings"
	"time"
)

// Bounds of the codec. Overlong schedules, out-of-range ordinals, and
// marathon delays are errors, never silently clamped.
const (
	// MaxOps bounds a schedule's op count.
	MaxOps = 16
	// MaxOrdinal bounds drop/corrupt request ordinals and crash shard
	// ordinals.
	MaxOrdinal = 4096
	// MaxDelay bounds a delay op's duration.
	MaxDelay = 10 * time.Second
	// MaxWorkerName bounds a crash op's worker-name length.
	MaxWorkerName = 64
)

// Identity is the canonical spelling of the empty schedule.
const Identity = "none"

// Path names one of the three distrib wire paths faults can land on.
type Path string

// The injectable wire paths.
const (
	PathLease     Path = "lease"
	PathComplete  Path = "complete"
	PathHeartbeat Path = "heartbeat"
)

// Paths lists every injectable wire path, in protocol order.
func Paths() []Path {
	return []Path{PathLease, PathComplete, PathHeartbeat}
}

func validPath(p Path) bool {
	switch p {
	case PathLease, PathComplete, PathHeartbeat:
		return true
	}
	return false
}

// Op is one fault in a schedule.
type Op interface {
	fmt.Stringer
	isOp()
}

// Drop fails the N-th request on a wire path outright: the client sees
// a transport error (or a 503 when injected coordinator-side) and must
// recover through its retry policy or the lease TTL.
type Drop struct {
	Path Path
	N    int
}

func (d Drop) String() string { return fmt.Sprintf("drop:%s/%d", d.Path, d.N) }
func (Drop) isOp()            {}

// Delay holds every request on a wire path for Dur before it is
// served — skewed heartbeats, slow lease grants, raced completions.
type Delay struct {
	Path Path
	Dur  time.Duration
}

func (d Delay) String() string { return fmt.Sprintf("delay:%s/%s", d.Path, d.Dur) }
func (Delay) isOp()            {}

// Corrupt flips a byte in the N-th transfer on a wire path: a mangled
// lease grant, a garbled completion body. The receiver
// must detect the damage (content digests, strict decoding) and recover
// by retrying or re-queueing — never by merging garbage.
type Corrupt struct {
	Path Path
	N    int
}

func (c Corrupt) String() string { return fmt.Sprintf("corrupt:%s/%d", c.Path, c.N) }
func (Corrupt) isOp()            {}

// Crash kills the named worker when the coordinator grants it its N-th
// lease: the worker stops executing and heartbeating without reporting,
// so the shard must come back through lease-TTL reaping.
type Crash struct {
	Worker string
	N      int
}

func (c Crash) String() string { return fmt.Sprintf("crash:%s@shard%d", c.Worker, c.N) }
func (Crash) isOp()            {}

// Schedule is a parsed fault program: the ops fire independently as
// their trigger ordinals come up.
type Schedule []Op

// String renders the schedule canonically; Parse(s.String()) returns an
// equal schedule for every valid s, byte-identically.
func (s Schedule) String() string {
	if len(s) == 0 {
		return Identity
	}
	parts := make([]string, len(s))
	for i, op := range s {
		parts[i] = op.String()
	}
	return strings.Join(parts, ";")
}
