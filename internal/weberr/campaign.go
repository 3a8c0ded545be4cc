package weberr

import (
	"context"
	"fmt"
	"strings"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// Oracle concludes whether the application behaved correctly under an
// erroneous trace (§V-A: "Our approach requires an oracle ... a common
// practice in automated testing"). It returns nil for correct behaviour
// and a describing error for a bug. With Parallelism > 1 the oracle is
// invoked from worker goroutines, each with a tab private to its own
// environment, so any oracle that only inspects its arguments is safe.
type Oracle func(tab *browser.Tab, res *replayer.Result) error

// ConsoleOracle flags any error-level console output — the signal that
// exposed the Google Sites uninitialized-variable bug (§V-C).
func ConsoleOracle(tab *browser.Tab, res *replayer.Result) error {
	if errs := tab.ConsoleErrors(); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Message
		}
		return fmt.Errorf("console errors: %s", strings.Join(msgs, "; "))
	}
	return nil
}

// Finding is one bug exposed by an injected error: the injection, the
// erroneous trace, and what the oracle observed.
type Finding struct {
	Injection Injection
	Trace     command.Trace
	Observed  error
}

// Report summarizes an error-injection campaign.
type Report struct {
	// Generated counts erroneous traces produced from the grammar.
	Generated int
	// Replayed counts traces actually replayed.
	Replayed int
	// Pruned counts traces skipped by prefix-failure pruning.
	Pruned int
	// Skipped counts traces the campaign's context cancelled: never
	// started, or stopped mid-replay before a judgeable end.
	Skipped int
	// ReplayFailures counts traces whose replay could not complete
	// (commands unresolvable after the injected error).
	ReplayFailures int
	// Findings are the oracle-detected bugs, in trace-generation order.
	Findings []Finding
}

// CampaignOptions configure RunNavigationCampaign and RunTimingCampaign.
type CampaignOptions struct {
	Inject InjectOptions
	// Oracle defaults to ConsoleOracle.
	Oracle Oracle
	// Replayer options for each replay; Pacing defaults to PaceRecorded.
	Replayer replayer.Options
	// DisablePruning turns off prefix-failure pruning (ablation; §V-A
	// heuristic 1).
	DisablePruning bool
	// DisablePrefixSharing turns off the executor's trace-trie
	// scheduler and replays every erroneous trace from command zero in
	// its own environment (ablation; sharing preserves campaign
	// results exactly, so this only trades speed).
	DisablePrefixSharing bool
	// MaxTraces bounds the campaign (0 = unlimited).
	MaxTraces int
	// Parallelism is the number of erroneous traces replayed
	// concurrently, each in its own isolated environment; 0 or 1 runs
	// the classic sequential campaign. Because a pruned trace can never
	// produce a finding (its replay would fail at the shared prefix),
	// the set of Findings is the same at any parallelism — only the
	// Replayed/Pruned split may differ.
	Parallelism int
}

// NavigationPlan derives the navigation campaign's work list from the
// grammar: every single-error mutant expanded into an erroneous trace,
// in mutant-generation order, bounded by MaxTraces. The plan is
// deterministic for a given grammar, which is what lets a cancelled
// campaign job resume: the remaining traces are re-derived (or stored)
// and merged with the outcomes already reached.
func NavigationPlan(g *Grammar, opts CampaignOptions) []campaign.Job {
	mutants := Mutants(g, opts.Inject)
	if opts.MaxTraces > 0 && len(mutants) > opts.MaxTraces {
		mutants = mutants[:opts.MaxTraces]
	}
	jobs := make([]campaign.Job, len(mutants))
	for i, m := range mutants {
		jobs[i] = campaign.Job{Trace: m.Trace(), Meta: m.Injection}
	}
	return jobs
}

// NavigationExecutor builds the executor a navigation campaign runs on:
// the oracle applies only to traces that replayed completely — a trace
// broken by its own injected error is a replay failure, not a bug in
// the application, and a context-cancelled partial replay must not be
// judged at all: a half-replayed page could yield findings a completed
// replay would not, breaking the findings-identical-at-any-parallelism
// contract.
func NavigationExecutor(newEnv EnvFactory, opts CampaignOptions) *campaign.Executor {
	return campaign.New(newEnv, campaign.Options{
		Parallelism:          opts.Parallelism,
		Replayer:             opts.Replayer,
		DisablePruning:       opts.DisablePruning,
		DisablePrefixSharing: opts.DisablePrefixSharing,
		Inspect:              JudgeFinished(opts.Oracle),
	})
}

// JudgeFinished wraps oracle (nil means ConsoleOracle) as a campaign
// inspector that judges only replays with no failed command that were
// not cancelled, for the reasons NavigationExecutor gives. Navigation
// and fuzz campaigns judge through it.
func JudgeFinished(oracle Oracle) func(job campaign.Job, res *replayer.Result, tab *browser.Tab) error {
	if oracle == nil {
		oracle = ConsoleOracle
	}
	return func(_ campaign.Job, res *replayer.Result, tab *browser.Tab) error {
		if res.Failed > 0 || res.Cancelled {
			return nil
		}
		return oracle(tab, res)
	}
}

// RunNavigationCampaign tests an application against navigation errors:
// it derives every single-error mutant of the grammar, expands each into
// an erroneous trace, replays the traces in fresh environments, and
// applies the oracle (Fig. 5, steps 2-4).
//
// Prefix-failure pruning: when a trace fails to replay at command k, all
// remaining traces sharing that k+1-command prefix are discarded without
// replay — "neither them can be successfully replayed".
func RunNavigationCampaign(newEnv EnvFactory, g *Grammar, opts CampaignOptions) *Report {
	return RunNavigationCampaignContext(context.Background(), newEnv, g, opts)
}

// RunNavigationCampaignContext is RunNavigationCampaign under a context:
// cancelling ctx stops in-flight replays at their next command boundary
// and reports not-yet-started traces as Skipped. It is plan → executor
// → report — exactly the path the jobs engine drives, so there is one
// campaign execution path however it is invoked.
func RunNavigationCampaignContext(ctx context.Context, newEnv EnvFactory, g *Grammar, opts CampaignOptions) *Report {
	exec := NavigationExecutor(newEnv, opts)
	return ReportOutcomes(exec.Execute(ctx, NavigationPlan(g, opts)))
}

// TimingPlan derives the timing campaign's work list: the correct
// trace with no wait time, then at increasingly impatient speeds
// (§V-B).
func TimingPlan(tr command.Trace) []campaign.Job {
	zero, zeroInj := TimingTrace(tr)
	jobs := []campaign.Job{{Trace: zero, Pacing: replayer.PaceNone, Meta: zeroInj}}
	for _, f := range []float64{0.5, 0.25} {
		scaled, inj := ScaledTimingTrace(tr, f)
		jobs = append(jobs, campaign.Job{Trace: scaled, Pacing: replayer.PaceRecorded, Meta: inj})
	}
	return jobs
}

// TimingExecutor builds the executor a timing campaign runs on. Pruning
// is always off: timing variants intentionally replay the same command
// sequence at different speeds, and prefix pruning would let the
// zero-wait variant's failure veto the slower ones. A timing error
// manifests through the oracle even when every command still resolved,
// so the oracle applies to every replay that ran to its end — but never
// to cancelled partial ones.
func TimingExecutor(newEnv EnvFactory, opts CampaignOptions) *campaign.Executor {
	oracle := opts.Oracle
	if oracle == nil {
		oracle = ConsoleOracle
	}
	return campaign.New(newEnv, campaign.Options{
		Parallelism:          opts.Parallelism,
		Replayer:             opts.Replayer,
		DisablePrefixSharing: opts.DisablePrefixSharing,
		DisablePruning:       true,
		Inspect: func(job campaign.Job, res *replayer.Result, tab *browser.Tab) error {
			if res.Cancelled {
				return nil
			}
			return oracle(tab, res)
		},
	})
}

// RunTimingCampaign tests an application against timing errors: the
// correct trace replayed with no wait time and at increasingly impatient
// speeds (§V-B).
func RunTimingCampaign(newEnv EnvFactory, tr command.Trace, opts CampaignOptions) *Report {
	return RunTimingCampaignContext(context.Background(), newEnv, tr, opts)
}

// RunTimingCampaignContext is RunTimingCampaign under a context. Like
// the navigation campaign it is plan → executor → report, the one
// execution path the jobs engine shares.
func RunTimingCampaignContext(ctx context.Context, newEnv EnvFactory, tr command.Trace, opts CampaignOptions) *Report {
	exec := TimingExecutor(newEnv, opts)
	return ReportOutcomes(exec.Execute(ctx, TimingPlan(tr)))
}

// ReportOutcomes aggregates executor outcomes into a campaign report,
// in trace-generation order.
func ReportOutcomes(outcomes []campaign.Outcome) *Report {
	rep := &Report{Generated: len(outcomes)}
	for _, out := range outcomes {
		switch {
		case out.Skipped:
			rep.Skipped++
			continue
		case out.Pruned:
			rep.Pruned++
			continue
		case out.Result.Cancelled:
			// The campaign's context fired mid-session: the trace did
			// not replay to a judgeable end.
			rep.Skipped++
			continue
		}
		rep.Replayed++
		if out.Result.Failed > 0 {
			rep.ReplayFailures++
		}
		if out.Verdict != nil {
			rep.Findings = append(rep.Findings, Finding{
				Injection: out.Job.Meta.(Injection),
				Trace:     out.Job.Trace,
				Observed:  out.Verdict,
			})
		}
	}
	return rep
}
