package jobs

// The engine: a bounded work queue with backpressure, a worker pool,
// cancellation with causes, resumption of cancelled jobs, and graceful
// drain. Exactly one of these runs inside every face of the module —
// the one-shot CLIs build one, submit, subscribe, and print; warr-serve
// keeps one alive behind HTTP.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// Engine errors.
var (
	// ErrQueueFull is Submit's backpressure signal: the bounded queue
	// has no room. Callers retry later (HTTP clients see 503).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects submissions once a graceful drain began.
	ErrDraining = errors.New("jobs: engine draining")
	// ErrUnknownJob reports an id the engine never issued.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrJobFinished rejects cancelling a job already in a terminal
	// state.
	ErrJobFinished = errors.New("jobs: job already finished")
	// ErrNotResumable rejects resuming a job that is not cancelled.
	ErrNotResumable = errors.New("jobs: only a cancelled job can resume")
	// CauseDrained is the cancellation cause of jobs a deadline-bound
	// drain cut short. They resume like any cancelled job, and the next
	// boot's journal recovery re-runs their spec. The message is stored
	// in journals as the drained marker, so it never changes.
	CauseDrained = errors.New("jobs: checkpointed by engine drain")
)

// Options configure an Engine.
type Options struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the queued-job backlog (default 64). A full
	// queue makes Submit fail with ErrQueueFull — backpressure, never
	// silent dropping.
	QueueDepth int
	// EnvFactory, when set, overrides how execution environments are
	// built per browser mode. The default builds fresh isolated
	// environments over the process's full app registry — the same
	// worlds every CLI has always used.
	EnvFactory func(mode browser.Mode) campaign.EnvFactory
	// Distributor, when set, is offered every campaign plan before it
	// executes in-process — resumed and revived jobs too, since they
	// re-run their spec; internal/distrib implements it over a worker
	// pool. A refusal (or an in-process-only spec: custom oracle, replay
	// hooks) falls back to the local executor — the engine always has a
	// single-process path.
	Distributor Distributor
	// Journal, when set, records every journalable submission and
	// terminal state to the write-ahead job journal, making the engine
	// crash-safe: open it with OpenJournal, hand the recovered jobs to
	// Revive, and a SIGKILL'd process resumes every journaled job on the
	// next boot. The engine does not close it.
	Journal *Journal
}

// DistSpec describes a campaign to a Distributor in wire-safe terms:
// everything a worker process needs to rebuild the exact executor the
// engine would run locally. Its JSON form is carried in every lease.
// Closures (custom oracles, hooks) cannot cross a process boundary, so
// specs carrying them are never offered.
type DistSpec struct {
	// Campaign is the kind table's campaign name ("navigation",
	// "timing", "fuzz", or "load"); it names the oracle and executor
	// shape the worker reconstructs.
	Campaign string `json:"campaign,omitempty"`
	// Mode is the browser build of the worker's environments.
	Mode browser.Mode `json:"mode,omitempty"`
	// Replayer configures the worker's replay sessions.
	Replayer replayer.Options `json:"replayer"`
	// DisablePruning is the §V-A heuristic-1 ablation.
	DisablePruning bool `json:"disablePruning,omitempty"`
	// Parallelism is the per-worker executor concurrency.
	Parallelism int `json:"parallelism,omitempty"`
}

// ShardExecutor rebuilds the executor a distributed campaign's shards
// run on, over the environments envFactory builds for the spec's mode:
// what a distrib worker executes a leased shard with. It returns nil
// when the campaign's shards are not traces (load runs ship schedule
// jobs) or the campaign is unknown to this build.
func (d DistSpec) ShardExecutor(envFactory func(browser.Mode) campaign.EnvFactory) *campaign.Executor {
	k := campaignEntry(d.Campaign)
	if k == nil || k.shardExecutor == nil {
		return nil
	}
	mode := d.Mode
	if mode == 0 {
		mode = browser.DeveloperMode
	}
	return k.shardExecutor(envFactory(mode), weberr.CampaignOptions{
		Replayer:       d.Replayer,
		DisablePruning: d.DisablePruning,
		Parallelism:    d.Parallelism,
	})
}

// Validate checks a lease's spec with the bounds Spec.Validate applies:
// a campaign this build knows, a valid build and pacing, and the
// parallelism bound. A failure wraps ErrInvalidSpec.
func (d DistSpec) Validate() error {
	if campaignEntry(d.Campaign) == nil {
		return invalidf("unknown campaign %q", d.Campaign)
	}
	if err := validBuild(d.Mode, d.Replayer.Pacing); err != nil {
		return err
	}
	return inRange("parallelism", d.Parallelism, maxParallelism)
}

// Distributor executes a campaign plan across a worker pool. ok ==
// false means the plan was not distributed (no workers connected, the
// pool busy, replay hooks attached, ...) and the caller
// must execute locally; when ok, outcomes are complete and in job
// order, with findings identical to what flat local execution would
// produce.
type Distributor interface {
	DistributeCampaign(ctx context.Context, exec *campaign.Executor, plan []campaign.Job, spec DistSpec) ([]campaign.Outcome, bool)
}

// LoadDistributor is the optional capability a Distributor may add to
// execute multi-user load-campaign schedules across the worker pool.
// Schedule jobs are self-describing wire values (workload name, user
// count, schedule codec, mode, gap), so any worker can rebuild the
// exact shared world locally; ok == false falls back to in-process
// execution, and when ok the results must be complete and keyed by the
// jobs' indices — the campaign reassembles them deterministically.
// spec carries only the campaign name.
type LoadDistributor interface {
	DistributeLoad(ctx context.Context, sjobs []multiuser.ScheduleJob, spec DistSpec) ([]multiuser.ScheduleResult, bool)
}

// Engine runs jobs over a bounded queue and a worker pool.
type Engine struct {
	opts Options

	queue chan *Job
	wg    sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []*Job
	factories map[browser.Mode]campaign.EnvFactory
	nextID    int
	draining  bool

	metrics metrics
}

// New starts an engine: the worker pool is live and Submit may be
// called immediately. Call Drain (or Close) to shut it down.
func New(opts Options) *Engine {
	if opts.Workers < 1 {
		opts.Workers = 2
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 64
	}
	if opts.EnvFactory == nil {
		opts.EnvFactory = func(mode browser.Mode) campaign.EnvFactory {
			return registry.BrowserFactory(mode)
		}
	}
	e := &Engine{
		opts:      opts,
		queue:     make(chan *Job, opts.QueueDepth),
		jobs:      make(map[string]*Job),
		factories: make(map[browser.Mode]campaign.EnvFactory),
	}
	for w := 0; w < opts.Workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for job := range e.queue {
				e.run(job)
			}
		}()
	}
	return e
}

// factory returns the (cached) environment factory for a browser mode.
func (e *Engine) factory(mode browser.Mode) campaign.EnvFactory {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.factories[mode]
	if !ok {
		f = e.opts.EnvFactory(mode)
		e.factories[mode] = f
	}
	return f
}

// Submit validates and enqueues a job. It fails with ErrInvalidSpec
// when the spec fails Validate, fast with ErrQueueFull when the bounded
// queue is full and ErrDraining once a drain began — it never blocks
// the caller.
func (e *Engine) Submit(spec Spec) (*Job, error) {
	if spec.Mode == 0 {
		spec.Mode = browser.DeveloperMode
	}
	return e.enqueue(spec)
}

// enqueue validates the spec, creates the Job record and offers it to
// the queue: the one path of submission, resumption and revival.
func (e *Engine) enqueue(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	e.nextID++
	job := &Job{
		ID:     fmt.Sprintf("job-%d", e.nextID),
		Spec:   spec,
		bus:    NewBus(),
		engine: e,
		doneCh: make(chan struct{}),
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	job.ctx, job.cancel = ctx, cancel
	job.created = now()
	job.state = StateQueued
	// The queued frame goes in before a worker can see the job, so every
	// stream opens with exactly one queued frame and the running frame
	// always follows it. Nobody can subscribe before the id is returned.
	job.bus.Publish(StateEvent{Type: "state", Job: job.ID, Kind: spec.Kind.String(), State: StateQueued.String()})
	// The queue is buffered; a full buffer is backpressure, reported
	// synchronously while the engine lock still excludes Drain from
	// closing the channel underneath us.
	select {
	case e.queue <- job:
	default:
		e.mu.Unlock()
		cancel(ErrQueueFull)
		return nil, ErrQueueFull
	}
	e.jobs[job.ID] = job
	e.order = append(e.order, job)
	e.mu.Unlock()
	// Write-ahead: the accepted submission hits the journal before the
	// caller learns the job id, so an acknowledged job is a durable job.
	if j := e.opts.Journal; j != nil && journalable(spec) {
		j.note(journalRecord{Rec: "submit", Job: job.ID, Spec: &spec})
	}
	return job, nil
}

// Get returns a job by id.
func (e *Engine) Get(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return job, nil
}

// Jobs lists every job the engine has seen, in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Job(nil), e.order...)
}

// Cancel requests cancellation of a job with the given cause (nil means
// context.Canceled). A running job stops at its next command boundary
// with a partial result; a queued job resolves to its cancelled state
// when a worker reaches it. Cancelling a finished job fails with
// ErrJobFinished.
func (e *Engine) Cancel(id string, cause error) error {
	job, err := e.Get(id)
	if err != nil {
		return err
	}
	job.mu.Lock()
	switch job.state {
	case StateDone, StateFailed, StateCancelled:
		job.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrJobFinished, id, job.state)
	}
	if cause != nil {
		job.cause = cause
	}
	job.mu.Unlock()
	job.cancel(cause)
	return nil
}

// Resume continues a cancelled job as a new job that re-runs its spec
// from the start, exactly as Revive does for a journal-recovered job:
// replays run on the virtual clock and campaigns are seeded, so the new
// job's stream is the one an uninterrupted run publishes. The cancelled
// job keeps its state and partial results. The new job rides the normal
// queue — backpressure applies.
func (e *Engine) Resume(id string) (*Job, error) {
	job, err := e.Get(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	if job.state != StateCancelled {
		state := job.state
		job.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrNotResumable, id, state)
	}
	if job.resumed != "" {
		resumed := job.resumed
		job.mu.Unlock()
		return nil, fmt.Errorf("jobs: %s already resumed as %s", id, resumed)
	}
	job.mu.Unlock()
	nj, err := e.enqueue(job.Spec)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	job.resumed = nj.ID
	job.mu.Unlock()
	// The resumed record keeps recovery from reviving the old job next
	// boot — its continuation is journaled under the new id.
	if j := e.opts.Journal; j != nil && journalable(job.Spec) {
		j.note(journalRecord{Rec: "resumed", Job: job.ID, As: nj.ID})
	}
	return nj, nil
}

// Revive resubmits journal-recovered jobs through the normal queue —
// call it once after New, with the jobs OpenJournal returned. Every
// recovered job re-runs its journaled spec whole: replays run on the
// virtual clock and campaign specs are seeded, so a re-run rebuilds the
// same worlds and reproduces the same stream — the spec is the
// checkpoint. A spec that fails Validate (a kind this build does not
// know, a count out of bounds) is warned about and skipped. Each
// revival is journaled, so a second crash never revives twice.
func (e *Engine) Revive(recovered []RecoveredJob) []*Job {
	j := e.opts.Journal
	var out []*Job
	for _, rj := range recovered {
		job, err := e.enqueue(rj.Spec)
		var invalid invalidSpec
		switch {
		case errors.As(err, &invalid):
			j.warnf("jobs: not reviving epoch %d %s: %s", rj.Epoch, rj.ID, string(invalid))
			continue
		case err != nil:
			j.warnf("jobs: reviving epoch %d %s: %v", rj.Epoch, rj.ID, err)
			continue
		}
		if j != nil {
			j.note(journalRecord{Rec: "revived", OfEpoch: rj.Epoch, Job: rj.ID})
			j.warnf("jobs: revived epoch %d %s as %s", rj.Epoch, rj.ID, job.ID)
		}
		e.metrics.journalReplayed.Add(1)
		out = append(out, job)
	}
	return out
}

// Drain shuts the engine down gracefully: no new submissions, queued
// jobs still execute, running jobs finish — and if ctx expires first,
// every unfinished job is cancelled with CauseDrained (its partial
// results are published, it remains resumable, and a journal revives
// it next boot) rather than dropped. Drain returns once every worker
// has exited; it is safe to call more than once.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.queue)
	}
	e.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel everything still unfinished. Sessions
	// stop at their next command boundary, so the second wait is short.
	for _, job := range e.Jobs() {
		job.mu.Lock()
		terminal := job.state == StateDone || job.state == StateFailed || job.state == StateCancelled
		if !terminal && job.cause == nil {
			job.cause = CauseDrained
		}
		job.mu.Unlock()
		if !terminal {
			job.cancel(CauseDrained)
		}
	}
	<-done
	return ctx.Err()
}

// Close drains with no grace period: every unfinished job is
// cancelled with CauseDrained and the engine waits for the workers.
func (e *Engine) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = e.Drain(ctx)
}

// Draining reports whether a drain has begun.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// QueueDepth returns the current backlog and the queue's capacity.
func (e *Engine) QueueDepth() (depth, capacity int) {
	return len(e.queue), cap(e.queue)
}

// run executes one job on a worker goroutine.
func (e *Engine) run(job *Job) {
	job.setState(StateRunning)
	k := job.Spec.Kind.entry()
	err := k.run(e, job, k.campaign)
	// A cancelled job ends cancelled whatever its runner returned: a
	// runner cut short may report the context's error (the load
	// campaign's local path does), and a failed job would neither resume
	// nor, when a drain cut it, revive.
	state := StateDone
	job.mu.Lock()
	switch cause := context.Cause(job.ctx); {
	case cause != nil:
		if job.cause == nil {
			job.cause = cause
		}
		state = StateCancelled
	case err != nil:
		job.err = err
		state = StateFailed
	}
	job.mu.Unlock()
	// Journal the terminal transition before publishing it: Wait and the
	// terminal frame must never run ahead of the record that keeps a
	// crash from reviving the job. Both publish the event journaled.
	ev := job.stateEvent(state)
	e.journalFinish(job, ev)
	job.commitState(state, ev)
	job.bus.Close()
}

// journalFinish records a job's terminal state, announced by ev, in the
// write-ahead journal. A drain-cancelled job needs nothing more: its
// journaled spec is its checkpoint, and revival re-runs it.
func (e *Engine) journalFinish(job *Job, ev StateEvent) {
	j := e.opts.Journal
	if j == nil || !journalable(job.Spec) {
		return
	}
	j.note(journalRecord{Rec: "state", Job: job.ID, State: ev.State, Cause: ev.Cause, Error: ev.Error})
}
