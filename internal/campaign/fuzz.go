package campaign

import (
	"context"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// The coverage-guided fuzzing loop over the campaign executor: a
// FuzzSource enumerates and mutates candidate erroneous traces, the
// executor replays them in batches through the shared-prefix trie
// scheduler, and a corpus of coverage-novel candidates feeds the next
// round of mutation. Candidates dedupe through the chained trace
// digests and the §V-A prefix-failure table before a replay is ever
// spent.
//
// Determinism contract: with a fixed source (seed) and budget, the
// findings report is byte-identical across runs at any Parallelism and
// with prefix sharing on or off. The loop achieves this by disabling
// the inner executor's own pruning (whose replayed/pruned split is
// scheduling-dependent) and doing all campaign bookkeeping — failure
// recording, corpus admission, finding collection — itself, serially,
// in outcome-index order after each batch.

// FuzzCandidate is one candidate erroneous trace: the serialized
// mutation program that produced it (its corpus identity and the
// native-fuzz input format), the rendered trace, and its pacing.
type FuzzCandidate struct {
	Program string
	Trace   command.Trace
	Pacing  replayer.Pacing
}

// FuzzSource generates candidates. errmodel.Mutator is the canonical
// implementation; the interface lives here so the executor stays
// error-model-agnostic.
type FuzzSource interface {
	// Seeds enumerates the initial candidates (limit 0 = all). The
	// correct trace itself should come first: it roots the corpus and
	// establishes baseline coverage.
	Seeds(limit int) []FuzzCandidate
	// Mutate derives a new candidate from a corpus entry. ok == false
	// means this entry yielded nothing; the loop draws from another.
	// Successive calls may return different results (seeded rng), but
	// the same call sequence must reproduce the same stream.
	Mutate(from FuzzCandidate) (FuzzCandidate, bool)
}

// FuzzOptions configure a FuzzExecutor.
type FuzzOptions struct {
	// Budget bounds how many replays the campaign spends; dedupe and
	// prune hits are free. 0 means DefaultFuzzBudget.
	Budget int
	// BatchSize is how many candidates are scheduled per executor
	// batch (0 = 16). Larger batches share more prefixes; smaller ones
	// feed coverage back into mutation sooner.
	BatchSize int
	// Parallelism, Replayer, and DisablePrefixSharing configure the
	// inner executor (campaign.Options semantics).
	Parallelism          int
	Replayer             replayer.Options
	DisablePrefixSharing bool
	// Inspect is the campaign oracle (campaign.Options.Inspect); a
	// non-nil verdict on a replayed candidate becomes a finding.
	Inspect func(job Job, res *replayer.Result, tab *browser.Tab) error
	// Coverage fingerprints each replay (campaign.Options.Coverage);
	// nil disables corpus growth — the campaign degrades to replaying
	// the enumerated seeds through digest dedup only.
	Coverage func(res *replayer.Result, tab *browser.Tab) []byte
	// Execute, when set, replaces the inner executor's batch execution
	// — the distribution hook: the jobs layer routes batches through a
	// worker pool here, falling back to exec.Execute itself. Outcomes
	// must come back in job order, campaign.Executor.Execute-shaped.
	Execute func(ctx context.Context, exec *Executor, batch []Job) []Outcome
}

// DefaultFuzzBudget is the replay budget when FuzzOptions.Budget is 0.
const DefaultFuzzBudget = 64

// FuzzFinding is one oracle hit.
type FuzzFinding struct {
	// Program is the mutation program that produced the trace.
	Program string
	// Trace is the rendered erroneous trace.
	Trace command.Trace
	// Observed is the oracle's verdict text.
	Observed string
}

// FuzzStats is the campaign's aggregate outcome.
type FuzzStats struct {
	// Generated counts candidates drawn from the source.
	Generated int
	// Deduped counts candidates dropped by the chained-digest dedupe
	// before scheduling.
	Deduped int
	// Pruned counts candidates dropped by the prefix-failure table
	// before scheduling (§V-A heuristic 1).
	Pruned int
	// Replayed counts candidates that ran to a result.
	Replayed int
	// ReplayFailures counts replays with at least one failed command.
	ReplayFailures int
	// Skipped counts candidates scheduled but cancelled before or
	// during their replay.
	Skipped int
	// Novel counts replays whose coverage fingerprint set a new bit;
	// each admitted its candidate to the corpus.
	Novel int
	// CorpusSize and CoverageBits describe the final corpus.
	CorpusSize   int
	CoverageBits int
	// Findings are the oracle hits, in discovery order.
	Findings []FuzzFinding
}

// Spent returns how much budget the campaign consumed.
func (s *FuzzStats) Spent() int { return s.Replayed + s.Skipped }

// FuzzExecutor drives the loop. Not safe for concurrent use; the
// parallelism lives inside each batch.
type FuzzExecutor struct {
	exec *Executor
	opts FuzzOptions

	prune    *PruneTable
	seen     map[prefixDigest]struct{}
	global   []byte
	corpus   []FuzzCandidate
	outcomes []Outcome
	stats    FuzzStats

	// OnBatch, when set, observes the running stats after each
	// absorbed batch (SSE progress publishing).
	OnBatch func(stats FuzzStats)
}

// NewFuzzExecutor builds the loop over fresh executor state. The inner
// executor runs with pruning disabled — see the determinism contract
// above; the fuzz loop owns the prune table.
func NewFuzzExecutor(newEnv EnvFactory, opts FuzzOptions) *FuzzExecutor {
	if opts.Budget <= 0 {
		opts.Budget = DefaultFuzzBudget
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	exec := New(newEnv, Options{
		Parallelism:          opts.Parallelism,
		Replayer:             opts.Replayer,
		DisablePruning:       true,
		DisablePrefixSharing: opts.DisablePrefixSharing,
		Inspect:              opts.Inspect,
		Coverage:             opts.Coverage,
	})
	return &FuzzExecutor{
		exec:  exec,
		opts:  opts,
		prune: NewPruneTable(),
		seen:  make(map[prefixDigest]struct{}),
	}
}

// Executor exposes the inner batch executor (the distribution hook
// plans shards against it).
func (f *FuzzExecutor) Executor() *Executor { return f.exec }

// Outcomes returns every scheduled or pre-schedule-pruned candidate's
// outcome, in schedule order.
func (f *FuzzExecutor) Outcomes() []Outcome { return f.outcomes }

// Corpus returns the admitted coverage-novel candidates, in admission
// order.
func (f *FuzzExecutor) Corpus() []FuzzCandidate { return append([]FuzzCandidate(nil), f.corpus...) }

// Run executes the fuzzing loop until the budget is spent, the source
// dries up, or ctx is cancelled. It returns the aggregate stats.
func (f *FuzzExecutor) Run(ctx context.Context, src FuzzSource) *FuzzStats {
	if ctx == nil {
		ctx = context.Background()
	}
	seeds := src.Seeds(0)
	nextSeed, mutIdx := 0, 0
	for f.stats.Spent() < f.opts.Budget && ctx.Err() == nil {
		batch := f.fillBatch(src, seeds, &nextSeed, &mutIdx)
		if len(batch) == 0 {
			break // the source is exhausted (or yields only duplicates)
		}
		outs := f.executeBatch(ctx, batch)
		f.absorb(outs)
		if f.OnBatch != nil {
			f.OnBatch(f.stats)
		}
	}
	f.stats.CorpusSize = len(f.corpus)
	return &f.stats
}

// fillBatch draws candidates — enumerated seeds first, then mutations
// of corpus entries round-robin — deduping and §V-A-pruning each
// before it costs a replay slot.
func (f *FuzzExecutor) fillBatch(src FuzzSource, seeds []FuzzCandidate, nextSeed, mutIdx *int) []Job {
	var batch []Job
	room := func() int { return f.opts.Budget - f.stats.Spent() - len(batch) }
	misses := 0
	for len(batch) < f.opts.BatchSize && room() > 0 {
		var c FuzzCandidate
		switch {
		case *nextSeed < len(seeds):
			c = seeds[*nextSeed]
			*nextSeed++
		case len(f.corpus) > 0 && misses <= 8*f.opts.BatchSize:
			var ok bool
			c, ok = src.Mutate(f.corpus[*mutIdx%len(f.corpus)])
			*mutIdx++
			if !ok {
				misses++
				continue
			}
		default:
			return batch
		}
		f.stats.Generated++
		if len(c.Trace.Commands) == 0 {
			f.stats.Deduped++
			misses++
			continue
		}
		d := tracePrefixDigest(c.Trace, len(c.Trace.Commands))
		if _, dup := f.seen[d]; dup {
			f.stats.Deduped++
			misses++
			continue
		}
		f.seen[d] = struct{}{}
		if f.prune.Prunable(c.Trace) {
			// A recorded failed prefix covers this candidate: account
			// it without spending a replay, like the enumerated
			// campaigns do.
			f.stats.Pruned++
			f.outcomes = append(f.outcomes, Outcome{
				Index:  len(f.outcomes),
				Job:    Job{Trace: c.Trace, Pacing: c.Pacing, Meta: c},
				Pruned: true,
			})
			misses++
			continue
		}
		batch = append(batch, Job{Trace: c.Trace, Pacing: c.Pacing, Meta: c})
		misses = 0
	}
	return batch
}

// executeBatch schedules one batch through the trie scheduler (or the
// distribution hook).
func (f *FuzzExecutor) executeBatch(ctx context.Context, batch []Job) []Outcome {
	if f.opts.Execute != nil {
		return f.opts.Execute(ctx, f.exec, batch)
	}
	return f.exec.Execute(ctx, batch)
}

// absorb performs the serial post-batch pass, in outcome-index order:
// stats, §V-A failure recording into the loop's prune table, coverage
// merging, corpus admission, and finding collection.
func (f *FuzzExecutor) absorb(outs []Outcome) {
	for _, out := range outs {
		c, _ := out.Job.Meta.(FuzzCandidate)
		out.Index = len(f.outcomes)
		f.outcomes = append(f.outcomes, out)
		switch {
		case out.Skipped || out.Result == nil || out.Result.Cancelled:
			f.stats.Skipped++
			continue
		default:
			f.stats.Replayed++
		}
		if out.Result.Failed > 0 {
			f.stats.ReplayFailures++
			if k := FirstFailure(out.Result); k >= 0 {
				f.prune.RecordFailure(out.Job.Trace, k)
			}
		}
		if out.Verdict != nil {
			f.stats.Findings = append(f.stats.Findings, FuzzFinding{
				Program:  c.Program,
				Trace:    out.Job.Trace,
				Observed: out.Verdict.Error(),
			})
		}
		if len(out.Coverage) > 0 && f.mergeCoverage(out.Coverage) {
			f.stats.Novel++
			f.corpus = append(f.corpus, c)
		}
	}
	f.stats.CorpusSize = len(f.corpus)
}

// mergeCoverage ORs a fingerprint into the global map and reports
// whether any bit was new. The first non-empty fingerprint defines the
// map's width; blobs of any other width are ignored.
func (f *FuzzExecutor) mergeCoverage(cov []byte) bool {
	if f.global == nil {
		f.global = append([]byte(nil), cov...)
		f.stats.CoverageBits = popcount(f.global)
		return f.stats.CoverageBits > 0
	}
	if len(cov) != len(f.global) {
		return false
	}
	novel := false
	for i, v := range cov {
		if v&^f.global[i] != 0 {
			novel = true
		}
		f.global[i] |= v
	}
	if novel {
		f.stats.CoverageBits = popcount(f.global)
	}
	return novel
}

func popcount(b []byte) int {
	n := 0
	for _, v := range b {
		for ; v != 0; v &= v - 1 {
			n++
		}
	}
	return n
}
