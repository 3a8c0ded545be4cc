// Package campaign implements the concurrent campaign executor: it
// replays many traces as independent replay sessions over a worker pool
// of isolated environments. WebErr's error-injection campaigns (paper
// §V — "hundreds of erroneous traces" per application) run on it, but
// the executor is tool-agnostic: a job is just a trace plus caller
// metadata, and the caller inspects each finished session through a
// per-job callback.
//
// The executor owns the two campaign-wide concerns the paper's
// heuristics require:
//
//   - isolation: every job replays in a fresh environment from the
//     EnvFactory, so server state never leaks between erroneous traces;
//   - prefix-failure pruning (§V-A heuristic 1): a concurrency-safe
//     table of failed trace prefixes shared by all workers, so a trace
//     whose prefix already failed is skipped without replay.
package campaign

import (
	"context"
	"sync"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// EnvFactory creates a fresh, isolated browser (with the application
// under test reachable on its network). It is called once per job, from
// worker goroutines, and must therefore be safe for concurrent use —
// which it is by construction when every call builds a new environment.
// registry.BrowserFactory derives one from any app selection; callers
// no longer hand-roll closures over package-level application vars.
type EnvFactory func() *browser.Browser

// Job is one unit of campaign work: a trace to replay plus caller
// context carried through to the Outcome.
type Job struct {
	// Trace is the trace to replay.
	Trace command.Trace
	// Pacing, when non-zero, overrides the executor's replayer pacing
	// for this job (timing campaigns mix paced and unpaced variants).
	Pacing replayer.Pacing
	// Meta is opaque caller context (e.g. WebErr's Injection).
	Meta any
}

// Outcome is the result of one job.
type Outcome struct {
	// Index is the job's position in the Execute slice; Execute returns
	// outcomes in that order regardless of completion order.
	Index int
	Job   Job
	// Pruned is set when the job was skipped by prefix-failure pruning;
	// the trace was not replayed and Result is nil.
	Pruned bool
	// Skipped is set when the context was cancelled before the job ran.
	Skipped bool
	// Result is the replay result (partial if the context was cancelled
	// mid-session). It is nil for pruned and skipped jobs; when the
	// start page failed to load it is a synthetic all-failed result and
	// Err records why.
	Result *replayer.Result
	// Verdict is whatever Options.Inspect returned for this job.
	Verdict error
	// Coverage is whatever Options.Coverage returned for this job — an
	// opaque fingerprint blob. Nil for pruned and skipped jobs, or when
	// no Coverage callback is configured.
	Coverage []byte
	// Err is the session-level error (start-page navigation failure).
	Err error
}

// Options configure an Executor.
type Options struct {
	// Parallelism is the number of concurrent replay sessions; 0 or 1
	// replays jobs sequentially in submission order, reproducing the
	// classic single-threaded campaign exactly.
	Parallelism int
	// Replayer configures each session; Pacing defaults to PaceRecorded
	// and may be overridden per job.
	Replayer replayer.Options
	// DisablePruning turns off prefix-failure pruning (ablation; §V-A
	// heuristic 1).
	DisablePruning bool
	// Inspect, when set, runs in the worker goroutine as soon as a
	// job's session finishes, with the session's tab still private to
	// that worker — campaign oracles belong here. Its return value is
	// stored in the job's Outcome.Verdict. It must not retain the tab
	// past the call.
	Inspect func(job Job, res *replayer.Result, tab *browser.Tab) error
	// Coverage, when set, runs wherever Inspect runs — in the worker
	// goroutine, with the finished session's tab — and its return value
	// is stored in Outcome.Coverage. Fuzzing campaigns fingerprint the
	// end-of-replay world here; like Inspect, it must not retain the
	// tab past the call.
	Coverage func(res *replayer.Result, tab *browser.Tab) []byte
	// Prune, when set, is the shared pruning table; campaigns that span
	// several Execute calls pass the same table. Nil means a fresh
	// table per Executor.
	Prune *PruneTable
	// DisablePrefixSharing turns off the trace-trie scheduler
	// (shared.go) and replays every job from command zero in its own
	// environment — the classic flat path. Sharing changes no outcome
	// (the equivalence is property-tested against flat execution);
	// this switch exists for ablation and for pinning down the flat
	// path in tests. Sharing also disables itself when it cannot help:
	// fewer than two jobs, no overlapping prefixes, replay hooks
	// attached, or an environment that cannot fork.
	DisablePrefixSharing bool
}

// Executor replays campaign jobs over a pool of isolated environments.
type Executor struct {
	newEnv EnvFactory
	opts   Options
	prune  *PruneTable
}

// New returns an executor creating one fresh environment per job from
// newEnv.
func New(newEnv EnvFactory, opts Options) *Executor {
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	prune := opts.Prune
	if prune == nil {
		prune = NewPruneTable()
	}
	return &Executor{newEnv: newEnv, opts: opts, prune: prune}
}

// PruneTable returns the executor's shared pruning table.
func (e *Executor) PruneTable() *PruneTable { return e.prune }

// Execute replays the jobs over Parallelism concurrent workers and
// returns one outcome per job, in job order. Cancelling ctx stops
// in-flight sessions at their next command boundary (their partial
// results are returned) and marks not-yet-started jobs Skipped.
func (e *Executor) Execute(ctx context.Context, jobs []Job) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	if outcomes, ok := e.tryExecuteShared(ctx, jobs); ok {
		return outcomes
	}
	outcomes := make([]Outcome, len(jobs))

	if e.opts.Parallelism == 1 {
		for i, job := range jobs {
			outcomes[i] = e.runJob(ctx, i, job)
		}
		return outcomes
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				outcomes[i] = e.runJob(ctx, i, jobs[i])
			}
		}()
	}
	for i := range jobs {
		indices <- i
	}
	close(indices)
	wg.Wait()
	return outcomes
}

// runJob replays one job in a fresh environment.
func (e *Executor) runJob(ctx context.Context, idx int, job Job) Outcome {
	out := Outcome{Index: idx, Job: job}
	if ctx.Err() != nil {
		out.Skipped = true
		return out
	}
	if !e.opts.DisablePruning && e.prune.Prunable(job.Trace) {
		out.Pruned = true
		return out
	}

	ropts := e.opts.Replayer
	if job.Pacing != 0 {
		ropts.Pacing = job.Pacing
	}
	b := e.newEnv()
	s, err := replayer.New(b, ropts).NewSession(ctx, job.Trace)
	if err != nil {
		// The start page failed to load; treat as a total replay
		// failure so the caller's bookkeeping sees every command lost.
		out.Err = err
		out.Result = &replayer.Result{Failed: len(job.Trace.Commands)}
	} else {
		out.Result = s.Run()
	}

	if !e.opts.DisablePruning && out.Result.Failed > 0 {
		if k := FirstFailure(out.Result); k >= 0 {
			e.prune.RecordFailure(job.Trace, k)
		}
	}
	if e.opts.Inspect != nil {
		out.Verdict = e.opts.Inspect(job, out.Result, s.Tab())
	}
	if e.opts.Coverage != nil {
		out.Coverage = e.opts.Coverage(out.Result, s.Tab())
	}
	return out
}

// FirstFailure returns the index of res's first failed step (-1 if
// none).
func FirstFailure(res *replayer.Result) int {
	for _, s := range res.Steps {
		if s.Status == replayer.StepFailed {
			return s.Index
		}
	}
	return -1
}
