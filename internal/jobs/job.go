package jobs

// Job kinds, states, specifications, and the Job record itself.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// Kind selects what a job does: its entry in the kind table. Its JSON
// form is its name.
type Kind int

// Job kinds.
const (
	// KindReplay replays the trace once (or Replicas times concurrently)
	// and streams each step.
	KindReplay Kind = iota + 1
	// KindNavigationCampaign infers the trace's interaction grammar and
	// runs the WebErr navigation-error campaign over it (§V-A).
	KindNavigationCampaign
	// KindTimingCampaign runs the WebErr timing-error campaign over the
	// trace (§V-B).
	KindTimingCampaign
	// KindReport ingests an AUsER user experience report: the reported
	// trace is replayed, minimized to a shortest reproducer, and
	// classified (the paper's Fig. 1 server side).
	KindReport
	// KindFuzzCampaign runs the coverage-guided error-model fuzzing
	// campaign: candidates from the composable human-error DSL
	// (internal/errmodel), scheduled through the campaign executor with
	// replay-coverage feedback.
	KindFuzzCampaign
	// KindLoadCampaign runs the multi-user load campaign: Users virtual
	// users in shared worlds, interleavings explored per world by the
	// deterministic schedule explorer (internal/multiuser), surfacing
	// contention-only findings no single-user campaign can reach.
	KindLoadCampaign
)

// kindEntry is one job kind's row in the kind table: everything about
// the kind outside its runner's body and its events.
type kindEntry struct {
	// name is the kind's wire name: the "kind" of journal specs and job
	// requests, and the kind label of state events and metrics.
	name string
	// workload marks kinds that run a registered multi-user workload
	// instead of a trace.
	workload bool
	// campaign names a campaign kind in DistSpec.Campaign, in leases
	// and in its report event ("" for kinds that run no campaign).
	campaign string
	// run executes one job of the kind on an engine worker; name is the
	// entry's campaign name.
	run func(e *Engine, job *Job, name string) error
	// shardExecutor builds the executor a distrib worker runs the
	// campaign's shards on (nil: its shards are not traces).
	shardExecutor func(newEnv campaign.EnvFactory, opts weberr.CampaignOptions) *campaign.Executor
}

// kinds is the kind table, indexed by Kind. Entry 0 stands for every
// kind this build does not know.
var kinds = [...]kindEntry{
	0:          {name: "unknown"},
	KindReplay: {name: "replay", run: (*Engine).runReplay},
	KindNavigationCampaign: {name: "navigation-campaign", campaign: "navigation",
		run: (*Engine).runNavigationCampaign, shardExecutor: weberr.NavigationExecutor},
	KindTimingCampaign: {name: "timing-campaign", campaign: "timing",
		run: (*Engine).runTimingCampaign, shardExecutor: weberr.TimingExecutor},
	KindReport: {name: "report", run: (*Engine).runReport},
	KindFuzzCampaign: {name: "fuzz-campaign", campaign: "fuzz",
		run: (*Engine).runFuzzCampaign, shardExecutor: fuzzShardExecutor},
	KindLoadCampaign: {name: "load-campaign", workload: true, campaign: "load",
		run: (*Engine).runLoadCampaign},
}

func (k Kind) entry() *kindEntry {
	if k < 1 || int(k) >= len(kinds) {
		return &kinds[0]
	}
	return &kinds[k]
}

// campaignEntry returns the kind table entry that runs the named
// campaign (nil when this build knows no such campaign).
func campaignEntry(name string) *kindEntry {
	for i := range kinds {
		if name != "" && kinds[i].campaign == name {
			return &kinds[i]
		}
	}
	return nil
}

// String returns the kind's name ("unknown" for a kind this build does
// not know).
func (k Kind) String() string { return k.entry().name }

// TakesWorkload reports whether jobs of the kind run a registered
// multi-user workload instead of a trace.
func (k Kind) TakesWorkload() bool { return k.entry().workload }

// MarshalText encodes the kind as its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText resolves a kind name. A name this build does not know
// decodes to 0 and no error: a journal a newer build wrote must still
// decode line by line, so revival skips that one job with a warning
// instead of the scan truncating every record after it.
func (k *Kind) UnmarshalText(text []byte) error {
	*k = 0
	for i := KindReplay; int(i) < len(kinds); i++ {
		if kinds[i].name == string(text) {
			*k = i
		}
	}
	return nil
}

// State is a job's lifecycle position.
type State int

// Job states. Queued → Running → one of Done / Failed / Cancelled; a
// cancelled job may be resumed as a new job.
const (
	StateQueued State = iota + 1
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// States lists every job state, in lifecycle order — the metrics
// exporter enumerates it so jobs-by-state series exist even at zero.
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
}

// Spec is a typed job specification — everything a runner needs, and
// nothing it can discover on its own. Its JSON form is the journal's
// record of a submission; the in-process-only fields (Oracle, Grammar,
// replay hooks) do not serialize, and a spec carrying Oracle or Grammar
// is never journaled.
type Spec struct {
	// Kind selects the runner.
	Kind Kind `json:"kind"`
	// Trace is the input trace (the correct trace for campaigns, the
	// reported trace for report ingestion).
	Trace command.Trace `json:"trace,omitempty"`
	// TraceName labels the trace in listings (scenario name, archive
	// id).
	TraceName string `json:"traceName,omitempty"`
	// Mode is the browser build of the execution environments; zero
	// means DeveloperMode, the replay-fidelity build every tool uses.
	Mode browser.Mode `json:"mode,omitempty"`
	// Replayer configures the replay sessions. Hooks are in-process
	// only; attaching them disables campaign prefix sharing exactly as
	// it always has.
	Replayer replayer.Options `json:"replayer"`
	// Replicas, for replay jobs, replays the trace N times concurrently
	// in isolated environments (warr-replay -parallel). 0 or 1 replays
	// once, streaming each step.
	Replicas int `json:"replicas,omitempty"`
	// Parallelism is the campaign executor's concurrency (0 or 1 =
	// sequential).
	Parallelism int `json:"parallelism,omitempty"`
	// MaxTraces bounds a navigation campaign (0 = all mutants).
	MaxTraces int `json:"maxTraces,omitempty"`
	// DisablePruning and DisablePrefixSharing are the campaign
	// ablations.
	DisablePruning       bool `json:"disablePruning,omitempty"`
	DisablePrefixSharing bool `json:"disablePrefixSharing,omitempty"`
	// Oracle overrides the campaign oracle (default ConsoleOracle). In-
	// process only.
	Oracle weberr.Oracle `json:"-"`
	// FuzzBudget, for fuzz campaigns, bounds how many replays the
	// campaign spends (0 = campaign.DefaultFuzzBudget).
	FuzzBudget int `json:"fuzzBudget,omitempty"`
	// FuzzSeed seeds the fuzz campaign's mutation stream; a fixed seed
	// and budget make the findings report byte-identical across runs.
	FuzzSeed int64 `json:"fuzzSeed,omitempty"`
	// Grammar, for navigation campaigns, skips task-tree inference and
	// injects errors into this grammar directly — for callers that
	// already inferred it (the corpus runner fingerprints the grammar
	// before running campaigns). In-process only.
	Grammar *weberr.Grammar `json:"-"`
	// Description, for report jobs, is the user's bug description.
	Description string `json:"description,omitempty"`
	// Workload, for load campaigns, names the multi-user workload (load
	// campaigns take a workload, not a trace).
	Workload string `json:"workload,omitempty"`
	// Users is a load campaign's total virtual user count; Cohort is how
	// many share one world; ScheduleBudget bounds the interleavings
	// explored per world size (0s take the multiuser defaults).
	Users          int `json:"users,omitempty"`
	Cohort         int `json:"cohort,omitempty"`
	ScheduleBudget int `json:"scheduleBudget,omitempty"`
	// ScheduleSeed seeds the interleaving explorer; a fixed seed and
	// budget make the findings report byte-identical across runs.
	ScheduleSeed int64 `json:"scheduleSeed,omitempty"`
	// Duration, for load campaigns, is each world's virtual time budget
	// (0 = default per-slot pacing). It encodes as int64 nanoseconds.
	Duration time.Duration `json:"durationNanos,omitempty"`
	// LoadSharing disabled re-executes identical world schedules instead
	// of sharing their results — the load campaign's cost ablation.
	DisableLoadSharing bool `json:"disableLoadSharing,omitempty"`
}

// ErrInvalidSpec wraps every reason Validate rejects a spec, whichever
// door the spec came through, so a front end can answer it as the
// caller's fault.
var ErrInvalidSpec = errors.New("jobs: invalid spec")

// invalidSpec is one reason a spec fails validation.
type invalidSpec string

func (r invalidSpec) Error() string { return ErrInvalidSpec.Error() + ": " + string(r) }
func (invalidSpec) Unwrap() error   { return ErrInvalidSpec }

func invalidf(format string, args ...any) error { return invalidSpec(fmt.Sprintf(format, args...)) }

// The one table of the bounds on a spec's counts (the cohort bound is
// multiuser.MaxCohort, which every world enforces). They sit far above
// any sensible run, so that a spec from a client, a journal or a lease
// cannot make a process allocate per-unit state without limit.
const (
	maxReplicas       = 1024
	maxParallelism    = 1024
	maxFuzzBudget     = 65536
	maxUsers          = 1 << 21
	maxScheduleBudget = 4096
	maxDuration       = 24 * time.Hour
)

// Validate checks the spec against the kind table and the bounds: the
// one check Engine.enqueue applies to each submission, resumption and
// revival. An empty trace is valid. A failure wraps ErrInvalidSpec.
func (s *Spec) Validate() error {
	k := s.Kind.entry()
	if k.run == nil {
		return invalidSpec("unknown kind")
	}
	for _, err := range []error{
		validBuild(s.Mode, s.Replayer.Pacing),
		inRange("replicas", s.Replicas, maxReplicas),
		inRange("parallelism", s.Parallelism, maxParallelism),
		inRange("fuzzBudget", s.FuzzBudget, maxFuzzBudget),
		inRange("users", s.Users, maxUsers),
		inRange("cohort", s.Cohort, multiuser.MaxCohort),
		inRange("scheduleBudget", s.ScheduleBudget, maxScheduleBudget),
	} {
		if err != nil {
			return err
		}
	}
	switch {
	case s.MaxTraces < 0:
		return invalidf("maxTraces %d negative", s.MaxTraces)
	case s.Duration < 0 || s.Duration > maxDuration:
		return invalidf("duration %s out of range [0, %s]", s.Duration, maxDuration)
	case !k.workload:
		if s.Workload != "" || s.Users != 0 || s.Cohort != 0 || s.ScheduleBudget != 0 ||
			s.ScheduleSeed != 0 || s.Duration != 0 || s.DisableLoadSharing {
			return invalidf("load-campaign fields are not valid on a %s job", k.name)
		}
	case s.TraceName != "" || s.Trace.StartURL != "" || len(s.Trace.Commands) > 0:
		return invalidf("%s jobs run workloads, not traces", k.name)
	case s.Workload == "":
		return invalidf("%s job missing workload", k.name)
	default:
		if _, err := multiuser.LookupWorkload(s.Workload); err != nil {
			return invalidSpec(err.Error())
		}
	}
	return nil
}

// validBuild checks the browser build and the pacing a spec or a lease
// selects: zero (the default) or a defined value. Both enumerations
// count up from 1 without gaps.
func validBuild(mode browser.Mode, pacing replayer.Pacing) error {
	if mode < 0 || mode > browser.DeveloperMode {
		return invalidf("mode %d not valid", mode)
	}
	if pacing < 0 || pacing > replayer.PaceNone {
		return invalidf("pacing %d not valid", pacing)
	}
	return nil
}

func inRange(name string, n, max int) error {
	if n < 0 || n > max {
		return invalidf("%s %d out of range [0, %d]", name, n, max)
	}
	return nil
}

// Classification is the stored outcome of AUsER report ingestion.
type Classification struct {
	// Verdict is console-error, replay-failure, replay-halted, or
	// no-repro.
	Verdict string
	// Signal is the observation the verdict rests on.
	Signal string
	// Minimized is the shortest prefix of the reported trace that still
	// reproduces the signal (the full trace for no-repro).
	Minimized command.Trace
	// Replays counts the replays the minimizer spent.
	Replays int
}

// Job is one unit of engine work: its spec, lifecycle state, event bus,
// and — once finished — its results. All mutable fields are guarded;
// accessors return snapshots safe to use from any goroutine.
type Job struct {
	// ID is the engine-assigned identifier ("job-1", "job-2", ...).
	ID string
	// Spec is the submitted specification (read-only after submit).
	Spec Spec

	bus    *Bus
	engine *Engine

	ctx    context.Context
	cancel context.CancelCauseFunc
	doneCh chan struct{}

	mu       sync.Mutex
	state    State
	err      error // runner failure (StateFailed)
	cause    error // cancellation cause (StateCancelled)
	created  time.Time
	started  time.Time
	finished time.Time

	// Results, by kind.
	result   *replayer.Result    // replay: the (possibly partial) replay result
	tab      *browser.Tab        // replay: final page state (single-session jobs)
	outcomes []campaign.Outcome  // replicas and campaigns
	report   *weberr.Report      // campaigns
	tree     *weberr.TaskTree    // navigation campaigns
	grammar  *weberr.Grammar     // navigation campaigns
	fuzz     *campaign.FuzzStats // fuzz campaigns
	load     *multiuser.Report   // load campaigns
	class    *Classification     // report ingestion
	resumed  string              // id of the job resuming this one
}

// locked reads one of the job's mutable fields under its lock.
func locked[T any](j *Job, field *T) T {
	j.mu.Lock()
	defer j.mu.Unlock()
	return *field
}

// Events returns the job's event bus.
func (j *Job) Events() *Bus { return j.bus }

// State returns the job's current state.
func (j *Job) State() State { return locked(j, &j.state) }

// Err returns the runner failure for StateFailed jobs.
func (j *Job) Err() error { return locked(j, &j.err) }

// CancelCause returns why a cancelled job was cancelled.
func (j *Job) CancelCause() error { return locked(j, &j.cause) }

// Result returns the replay result (nil for campaign jobs, partial for
// cancelled jobs).
func (j *Job) Result() *replayer.Result { return locked(j, &j.result) }

// Tab returns the final page of a single-session replay job, for
// oracles that inspect it. It is only safe to use after the job
// finished.
func (j *Job) Tab() *browser.Tab { return locked(j, &j.tab) }

// Outcomes returns the per-trace campaign outcomes (or per-replica
// outcomes for replicated replay jobs), in job order.
func (j *Job) Outcomes() []campaign.Outcome { return locked(j, &j.outcomes) }

// Report returns a campaign job's report.
func (j *Job) Report() *weberr.Report { return locked(j, &j.report) }

// TaskTree and Grammar return a navigation campaign's inferred
// structures (nil until inference ran).
func (j *Job) TaskTree() *weberr.TaskTree { return locked(j, &j.tree) }

// Grammar returns the grammar a navigation campaign injected errors
// into.
func (j *Job) Grammar() *weberr.Grammar { return locked(j, &j.grammar) }

// FuzzStats returns a fuzz campaign's aggregate stats (nil until the
// campaign ran).
func (j *Job) FuzzStats() *campaign.FuzzStats { return locked(j, &j.fuzz) }

// LoadReport returns a load campaign's report (nil until the campaign
// ran).
func (j *Job) LoadReport() *multiuser.Report { return locked(j, &j.load) }

// Classification returns a report job's ingestion outcome.
func (j *Job) Classification() *Classification { return locked(j, &j.class) }

// ResumedBy returns the id of the job that resumed this one ("" if
// none).
func (j *Job) ResumedBy() string { return locked(j, &j.resumed) }

// Created, Started and Finished return the job's lifecycle timestamps
// (zero until reached).
func (j *Job) Created() time.Time { return locked(j, &j.created) }

// Started returns when a worker picked the job up.
func (j *Job) Started() time.Time { return locked(j, &j.started) }

// Finished returns when the job reached a terminal state.
func (j *Job) Finished() time.Time { return locked(j, &j.finished) }

// Wait blocks until the job reaches a terminal state (or ctx expires).
func (j *Job) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// setState transitions the job and publishes the StateEvent.
func (j *Job) setState(s State) {
	j.commitState(s, j.stateEvent(s))
}

// stateEvent builds the StateEvent announcing s, carrying the job's
// cancellation cause and runner failure.
func (j *Job) stateEvent(s State) StateEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stateEventLocked(s)
}

func (j *Job) stateEventLocked(s State) StateEvent {
	ev := StateEvent{Type: "state", Job: j.ID, Kind: j.Spec.Kind.String(), State: s.String()}
	if j.cause != nil {
		ev.Cause = j.cause.Error()
	}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	return ev
}

// commitState records s as the job's state and publishes ev, the event
// announcing it; a terminal state releases Wait.
func (j *Job) commitState(s State, ev StateEvent) {
	j.mu.Lock()
	j.state = s
	switch s {
	case StateRunning:
		j.started = now()
	case StateDone, StateFailed, StateCancelled:
		j.finished = now()
	}
	terminal := s == StateDone || s == StateFailed || s == StateCancelled
	j.mu.Unlock()
	j.bus.Publish(ev)
	if terminal {
		close(j.doneCh)
	}
}

// now is the engine's wall clock (jobs run on real time; the simulated
// worlds inside them keep their own virtual clocks).
func now() time.Time { return time.Now() }
