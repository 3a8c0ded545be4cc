package jobs

// The per-kind job runners. Every runner executes on a worker
// goroutine, drives the existing replayer.Session / campaign.Executor
// APIs under the job's cancellable context, publishes its progress on
// the job's event bus, and stores its results on the Job. A runner
// returning a non-nil error fails the job; cancellation is not an
// error — the engine derives the Cancelled state from the job context
// afterwards.

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/errmodel"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// ---- replay ----

// runReplay replays the spec trace once (streaming each step) or
// Replicas times concurrently (streaming per-replica summaries).
func (e *Engine) runReplay(job *Job, _ string) error {
	if job.Spec.Replicas > 1 {
		return e.runReplicated(job)
	}
	_, err := e.replaySession(job)
	return err
}

// replaySession replays the job's trace in a fresh environment,
// streaming one StepEvent per command and a closing SummaryEvent, and
// returns the finished session. A job cancelled before it started
// publishes the empty partial result an unstarted session reports on
// its first Next, and returns no session.
func (e *Engine) replaySession(job *Job) (*replayer.Session, error) {
	spec := job.Spec
	if cause := context.Cause(job.ctx); cause != nil {
		res := &replayer.Result{Cancelled: true, CancelCause: cause}
		job.mu.Lock()
		job.result = res
		job.mu.Unlock()
		job.bus.Publish(NewSummaryEvent(0, len(spec.Trace.Commands), res, nil))
		return nil, nil
	}
	session, err := replayer.New(e.factory(spec.Mode)(), spec.Replayer).NewSession(job.ctx, spec.Trace)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	allocs0 := readMallocs()
	for step := range session.Steps() {
		job.bus.Publish(NewStepEvent(step))
	}
	res := session.Result()
	e.metrics.observeReplay(len(res.Steps), time.Since(start), readMallocs()-allocs0)
	job.mu.Lock()
	job.result = res
	job.tab = session.Tab()
	job.mu.Unlock()
	job.bus.Publish(NewSummaryEvent(0, len(spec.Trace.Commands), res, session.Tab()))
	return session, nil
}

// runReplicated replays the trace Replicas times concurrently over
// isolated environments — warr-replay's -parallel determinism check.
func (e *Engine) runReplicated(job *Job) error {
	spec := job.Spec
	plan := make([]campaign.Job, spec.Replicas)
	for i := range plan {
		plan[i] = campaign.Job{Trace: spec.Trace}
	}
	exec := campaign.New(e.factory(spec.Mode), campaign.Options{
		Parallelism: spec.Replicas,
		Replayer:    spec.Replayer,
		// Replicas are identical; a failure must not prune the rest.
		DisablePruning: true,
	})
	outcomes := exec.Execute(job.ctx, plan)
	job.mu.Lock()
	job.outcomes = outcomes
	job.mu.Unlock()
	for i, out := range outcomes {
		if out.Skipped {
			job.bus.Publish(SkippedEvent{Type: "skipped", Replica: i})
			continue
		}
		job.bus.Publish(NewSummaryEvent(i, len(spec.Trace.Commands), out.Result, nil))
	}
	return nil
}

// ---- campaigns ----

// fuzzShardExecutor builds the executor fuzz campaign shards run on: the
// fuzz loop owns the prune table, so pruning stays off; the oracle
// judges only finished replays, and every replay reports its coverage
// fingerprint.
func fuzzShardExecutor(newEnv campaign.EnvFactory, opts weberr.CampaignOptions) *campaign.Executor {
	return campaign.New(newEnv, campaign.Options{
		Parallelism:    opts.Parallelism,
		Replayer:       opts.Replayer,
		DisablePruning: true,
		Inspect:        weberr.JudgeFinished(nil),
		Coverage:       errmodel.CampaignCoverage,
	})
}

// campaignOptions translates a job spec into weberr campaign options.
func campaignOptions(spec Spec) weberr.CampaignOptions {
	return weberr.CampaignOptions{
		Oracle:               spec.Oracle,
		Replayer:             spec.Replayer,
		DisablePruning:       spec.DisablePruning,
		DisablePrefixSharing: spec.DisablePrefixSharing,
		MaxTraces:            spec.MaxTraces,
		Parallelism:          spec.Parallelism,
	}
}

// runNavigationCampaign infers the grammar and runs the WebErr
// navigation-error campaign over it — the same plan → executor →
// report path RunNavigationCampaign wraps.
func (e *Engine) runNavigationCampaign(job *Job, name string) error {
	spec := job.Spec
	copts := campaignOptions(spec)
	newEnv := e.factory(spec.Mode)
	g := spec.Grammar
	if g == nil {
		tree, err := weberr.InferTaskTree(newEnv, spec.Trace)
		if err != nil {
			return fmt.Errorf("jobs: inferring task tree: %w", err)
		}
		g = weberr.FromTaskTree(tree)
		job.mu.Lock()
		job.tree = tree
		job.mu.Unlock()
	}
	job.mu.Lock()
	job.grammar = g
	job.mu.Unlock()
	e.runPlan(job, name, weberr.NavigationExecutor(newEnv, copts), weberr.NavigationPlan(g, copts))
	return nil
}

// runTimingCampaign runs the WebErr timing-error campaign over the
// trace.
func (e *Engine) runTimingCampaign(job *Job, name string) error {
	spec := job.Spec
	e.runPlan(job, name, weberr.TimingExecutor(e.factory(spec.Mode), campaignOptions(spec)), weberr.TimingPlan(spec.Trace))
	return nil
}

// distribute offers a campaign plan to the configured Distributor.
// Jobs with a custom oracle stay local: closures cannot cross a process
// boundary.
func (e *Engine) distribute(job *Job, exec *campaign.Executor, plan []campaign.Job, name string) ([]campaign.Outcome, bool) {
	d := e.opts.Distributor
	if d == nil || job.Spec.Oracle != nil {
		return nil, false
	}
	return d.DistributeCampaign(job.ctx, exec, plan, job.Spec.distSpec(name))
}

// distSpec is the wire form of the spec's campaign settings.
func (s *Spec) distSpec(campaign string) DistSpec {
	return DistSpec{Campaign: campaign, Mode: s.Mode, Replayer: s.Replayer,
		DisablePruning: s.DisablePruning, Parallelism: s.Parallelism}
}

// runPlan executes a campaign plan, on the distributor when it takes
// the plan and locally otherwise, stores the results, and publishes
// the outcome stream: one OutcomeEvent per trace in plan order, then
// the ReportEvent of the campaign the kind table names.
func (e *Engine) runPlan(job *Job, name string, exec *campaign.Executor, plan []campaign.Job) {
	outcomes, ok := e.distribute(job, exec, plan, name)
	if !ok {
		outcomes = exec.Execute(job.ctx, plan)
	}
	rep := weberr.ReportOutcomes(outcomes)
	job.mu.Lock()
	job.outcomes = outcomes
	job.report = rep
	job.mu.Unlock()
	for _, out := range outcomes {
		job.bus.Publish(newOutcomeEvent(out))
	}
	job.bus.Publish(newReportEvent(name, rep))
}

// newOutcomeEvent converts one executor outcome into its event.
func newOutcomeEvent(out campaign.Outcome) OutcomeEvent {
	ev := OutcomeEvent{Type: "outcome", Index: out.Index}
	switch m := out.Job.Meta.(type) {
	case weberr.Injection:
		ev.Injection = m.String()
	case campaign.FuzzCandidate:
		ev.Injection = weberr.Injection{Kind: weberr.Fuzz, Detail: m.Program}.String()
	}
	if len(out.Coverage) > 0 {
		ev.Coverage = hex.EncodeToString(out.Coverage)
	}
	switch {
	case out.Skipped:
		ev.Status = "skipped"
	case out.Pruned:
		ev.Status = "pruned"
	case out.Result != nil && out.Result.Cancelled:
		ev.Status = "cancelled"
	default:
		ev.Status = "replayed"
	}
	if out.Result != nil {
		ev.Played = out.Result.Played
		ev.Failed = out.Result.Failed
	}
	if ev.Status == "replayed" && out.Verdict != nil {
		ev.Finding = true
		ev.Observed = out.Verdict.Error()
	}
	return ev
}

// newReportEvent converts a campaign report into its event.
func newReportEvent(name string, rep *weberr.Report) ReportEvent {
	ev := ReportEvent{
		Type:           "report",
		Campaign:       name,
		Generated:      rep.Generated,
		Replayed:       rep.Replayed,
		Pruned:         rep.Pruned,
		Skipped:        rep.Skipped,
		ReplayFailures: rep.ReplayFailures,
	}
	for _, f := range rep.Findings {
		ev.Findings = append(ev.Findings, FindingRecord{
			Injection: f.Injection.String(),
			Observed:  f.Observed.Error(),
		})
	}
	return ev
}

// ---- fuzz campaign ----

// runFuzzCampaign runs the coverage-guided error-model fuzzing loop:
// candidates from the composable human-error DSL over the spec trace,
// scheduled in batches through the campaign executor, with replay
// coverage feeding the mutation corpus. With a fixed FuzzSeed and
// FuzzBudget the findings report is byte-identical across runs, so a
// resumed or revived fuzz job re-runs its spec like any other job.
func (e *Engine) runFuzzCampaign(job *Job, name string) error {
	spec := job.Spec
	budget := spec.FuzzBudget
	if budget <= 0 {
		budget = campaign.DefaultFuzzBudget
	}
	fopts := campaign.FuzzOptions{
		Budget:               budget,
		Parallelism:          spec.Parallelism,
		Replayer:             spec.Replayer,
		DisablePrefixSharing: spec.DisablePrefixSharing,
		Inspect:              weberr.JudgeFinished(spec.Oracle),
		Coverage:             errmodel.CampaignCoverage,
	}
	// Offer each batch to the distributor under the same eligibility
	// rules as enumerated campaigns; a refusal falls back to the local
	// executor mid-loop.
	if d := e.opts.Distributor; d != nil && spec.Oracle == nil {
		dspec := spec.distSpec(name)
		// The fuzz loop owns pruning (determinism contract); workers
		// must not prune on their own.
		dspec.DisablePruning = true
		fopts.Execute = func(ctx context.Context, exec *campaign.Executor, batch []campaign.Job) []campaign.Outcome {
			if outs, ok := d.DistributeCampaign(ctx, exec, batch, dspec); ok {
				return outs
			}
			return exec.Execute(ctx, batch)
		}
	}
	fx := campaign.NewFuzzExecutor(e.factory(spec.Mode), fopts)
	fx.OnBatch = func(st campaign.FuzzStats) {
		job.bus.Publish(newFuzzEvent(st, budget))
	}
	src := errmodel.NewMutator(spec.Trace, spec.FuzzSeed, apps.QueryDictionary())
	stats := fx.Run(job.ctx, src)
	rep := fuzzReport(stats)
	outcomes := fx.Outcomes()
	job.mu.Lock()
	job.outcomes = outcomes
	job.report = rep
	job.fuzz = stats
	job.mu.Unlock()
	e.metrics.observeFuzz(stats.Generated, stats.Deduped, stats.Novel, len(stats.Findings))
	for _, out := range outcomes {
		job.bus.Publish(newOutcomeEvent(out))
	}
	job.bus.Publish(newFuzzEvent(*stats, budget))
	job.bus.Publish(newReportEvent(name, rep))
	return nil
}

// newFuzzEvent renders the campaign's running stats as an event frame.
func newFuzzEvent(st campaign.FuzzStats, budget int) FuzzEvent {
	return FuzzEvent{
		Type:         "fuzz",
		Generated:    st.Generated,
		Deduped:      st.Deduped,
		Pruned:       st.Pruned,
		Replayed:     st.Replayed,
		Skipped:      st.Skipped,
		Novel:        st.Novel,
		CorpusSize:   st.CorpusSize,
		CoverageBits: st.CoverageBits,
		Findings:     len(st.Findings),
		Budget:       budget,
		Spent:        st.Spent(),
	}
}

// fuzzReport translates the fuzz campaign's stats into the shared
// weberr report shape: each finding's injection is the Fuzz kind
// carrying its serialized mutation program.
func fuzzReport(st *campaign.FuzzStats) *weberr.Report {
	rep := &weberr.Report{
		Generated:      st.Generated,
		Replayed:       st.Replayed,
		Pruned:         st.Pruned,
		Skipped:        st.Skipped,
		ReplayFailures: st.ReplayFailures,
	}
	for _, f := range st.Findings {
		rep.Findings = append(rep.Findings, weberr.Finding{
			Injection: weberr.Injection{Kind: weberr.Fuzz, Detail: f.Program},
			Trace:     f.Trace,
			Observed:  errors.New(f.Observed),
		})
	}
	return rep
}

// ---- load campaign ----

// runLoadCampaign runs the multi-user shared-world load campaign: the
// interleaving explorer perturbs per-world schedules, worlds execute
// them over shared environments, and violations aggregate into
// interference findings. With a fixed seed the findings report is
// byte-identical across runs, parallelism, and sharing modes, so a
// resumed or revived load job re-runs its spec like any other job.
func (e *Engine) runLoadCampaign(job *Job, name string) error {
	spec := job.Spec
	o := multiuser.Options{
		Workload:       spec.Workload,
		Users:          spec.Users,
		Cohort:         spec.Cohort,
		Budget:         spec.ScheduleBudget,
		Seed:           spec.ScheduleSeed,
		Duration:       spec.Duration,
		Mode:           spec.Mode,
		Parallelism:    spec.Parallelism,
		DisableSharing: spec.DisableLoadSharing,
		OnProgress: func(p multiuser.Progress) {
			// The bus retains full history; a million-user campaign
			// absorbs hundreds of thousands of worlds, so progress
			// frames publish at ~1% granularity (the closing frame
			// always carries the final counters).
			step := p.Worlds / 100
			if step < 1 {
				step = 1
			}
			if p.WorldsDone%step != 0 && p.WorldsDone != p.Worlds {
				return
			}
			job.bus.Publish(LoadEvent{
				Type:       "load",
				Workload:   spec.Workload,
				Users:      p.Users,
				Worlds:     p.Worlds,
				WorldsDone: p.WorldsDone,
				Executed:   p.Executed,
				Shared:     p.Shared,
			})
		},
	}
	// Offer the deduplicated schedule jobs to the distributor when it
	// speaks the load capability; schedules are wire-safe values, so
	// every load job is eligible.
	if d, ok := e.opts.Distributor.(LoadDistributor); ok {
		o.Execute = func(ctx context.Context, sjobs []multiuser.ScheduleJob) ([]multiuser.ScheduleResult, bool) {
			return d.DistributeLoad(ctx, sjobs, DistSpec{Campaign: name})
		}
	}
	rep, err := multiuser.Run(job.ctx, o)
	if err != nil {
		return err
	}
	wrep := loadReport(rep)
	job.mu.Lock()
	job.load = rep
	job.report = wrep
	job.mu.Unlock()
	e.metrics.observeLoad(rep.Users, rep.Worlds, rep.Executed, rep.Shared, len(rep.Findings))
	job.bus.Publish(LoadEvent{
		Type:         "load",
		Workload:     rep.Workload,
		Users:        rep.Users,
		Worlds:       rep.Worlds,
		WorldsDone:   rep.Worlds,
		Executed:     rep.Executed,
		Shared:       rep.Shared,
		CoverageBits: rep.CoverageBits,
		Findings:     len(rep.Findings),
	})
	job.bus.Publish(newReportEvent(name, wrep))
	return nil
}

// loadReport translates a load-campaign report into the shared weberr
// report shape: each finding's injection is the Interleave kind
// carrying the reproducing schedule.
func loadReport(rep *multiuser.Report) *weberr.Report {
	w := &weberr.Report{
		Generated: rep.Executed + rep.Shared,
		Replayed:  rep.Executed,
	}
	for _, f := range rep.Findings {
		w.Findings = append(w.Findings, weberr.Finding{
			Injection: weberr.Injection{Kind: weberr.Interleave, Detail: f.Schedule},
			Observed:  fmt.Errorf("[%s] %s", f.Kind, f.Detail),
		})
	}
	return w
}

// ---- AUsER report ingestion ----

// runReport is the server side of the paper's Fig. 1: a user error
// report arrives, its trace is replayed (streamed step by step),
// minimized to a shortest reproducer of the observed signal, and
// classified. A cancelled ingestion resumes as a fresh full run.
func (e *Engine) runReport(job *Job, _ string) error {
	session, err := e.replaySession(job)
	if session == nil || err != nil {
		return err
	}
	res := session.Result()
	if res.Cancelled {
		return nil
	}
	cls := e.classify(job, res, session)
	if cls == nil {
		return nil // cancelled mid-minimization
	}
	job.mu.Lock()
	job.class = cls
	job.mu.Unlock()
	job.bus.Publish(ClassificationEvent{
		Type:              "classification",
		Verdict:           cls.Verdict,
		Signal:            cls.Signal,
		Commands:          len(job.Spec.Trace.Commands),
		MinimizedCommands: len(cls.Minimized.Commands),
		Replays:           cls.Replays,
	})
	return nil
}

// classify derives the ingestion verdict from the full replay and
// minimizes the trace to the shortest prefix still showing the signal.
// It returns nil when the job was cancelled mid-minimization.
func (e *Engine) classify(job *Job, res *replayer.Result, session *replayer.Session) *Classification {
	spec := job.Spec
	tab := session.Tab()
	replays := 1 // the ingestion replay itself
	var verdict, signal string
	var reproduces func(*replayer.Result, *replayer.Session) bool
	switch {
	case len(tab.ConsoleErrors()) > 0:
		verdict, signal = "console-error", tab.ConsoleErrors()[0].Message
		reproduces = func(r *replayer.Result, s *replayer.Session) bool {
			return len(s.Tab().ConsoleErrors()) > 0
		}
	case res.Halted:
		verdict, signal = "replay-halted", firstFailure(res)
		reproduces = func(r *replayer.Result, s *replayer.Session) bool { return r.Halted }
	case res.Failed > 0:
		verdict, signal = "replay-failure", firstFailure(res)
		reproduces = func(r *replayer.Result, s *replayer.Session) bool { return r.Failed > 0 }
	default:
		return &Classification{Verdict: "no-repro", Minimized: spec.Trace, Replays: replays}
	}

	// Binary search the shortest prefix reproducing the signal. The
	// invariants: hi always reproduces (the full trace did), lo never
	// does (lo == -1 is the vacuous floor). Console errors and replay
	// failures accumulate — once a prefix shows them, every longer
	// prefix does too — so the predicate is monotone over prefix length.
	lo, hi := -1, len(spec.Trace.Commands)
	for hi-lo > 1 {
		if context.Cause(job.ctx) != nil {
			return nil
		}
		mid := (lo + hi) / 2
		r, s, err := e.replayPrefix(job, mid)
		replays++
		if err == nil && r.Cancelled {
			return nil
		}
		if err == nil && reproduces(r, s) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return &Classification{
		Verdict:   verdict,
		Signal:    signal,
		Minimized: command.Trace{StartURL: spec.Trace.StartURL, Commands: spec.Trace.Commands[:hi]},
		Replays:   replays,
	}
}

// replayPrefix replays the first n commands of the job's trace in a
// fresh environment.
func (e *Engine) replayPrefix(job *Job, n int) (*replayer.Result, *replayer.Session, error) {
	spec := job.Spec
	sub := command.Trace{StartURL: spec.Trace.StartURL, Commands: spec.Trace.Commands[:n]}
	b := e.factory(spec.Mode)()
	s, err := replayer.New(b, spec.Replayer).NewSession(job.ctx, sub)
	if err != nil {
		return nil, nil, err
	}
	return s.Run(), s, nil
}

// firstFailure describes the first failed step of a result.
func firstFailure(res *replayer.Result) string {
	for _, s := range res.Steps {
		if s.Status == replayer.StepFailed {
			return fmt.Sprintf("command %d (%s) failed: %v", s.Index, s.Cmd.Action, s.Err)
		}
	}
	return ""
}
