package campaign

import (
	"fmt"
	"testing"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// runShardsLocally simulates a worker fleet: every shard runs on a
// brand-new executor (fresh environment factory, fresh prune table —
// exactly what a separate process gets), which replays the shard's
// shared prefix itself, and the outcomes merge back into the plan.
// Meta is stripped from the shard's jobs first, as the wire protocol
// strips it.
func runShardsLocally(t *testing.T, plan *ShardPlan, jobs []Job, opts Options) {
	t.Helper()
	for _, sh := range plan.Shards {
		shardJobs := make([]Job, len(sh.Jobs))
		for i, ji := range sh.Jobs {
			shardJobs[i] = Job{Trace: jobs[ji].Trace, Pacing: jobs[ji].Pacing}
		}
		worker := New(freshBrowser, opts)
		outs := worker.ExecuteShard(nil, shardJobs, sh.Depth)
		if err := plan.Merge(sh, outs); err != nil {
			t.Fatalf("merging shard outcomes: %v", err)
		}
	}
}

// pageOracle is a deterministic per-job verdict: every completed
// replay "finds" its final page, so any divergence between distributed
// and flat execution — wrong page, wrong prefix, lost command —
// surfaces as a verdict mismatch.
func pageOracle(job Job, res *replayer.Result, tab *browser.Tab) error {
	if res.Failed > 0 || res.Cancelled {
		return nil
	}
	return fmt.Errorf("page %s %q", tab.URL(), tab.Title())
}

// TestShardedExecutionMatchesFlat: plan → ExecuteShard → merge
// reproduces flat execution for mutant-shaped
// jobs, at several shard granularities. With pruning disabled the full
// outcome — step lists included — must match; with pruning enabled the
// Replayed/Pruned split may shift across shard boundaries (each worker
// prunes locally) but every verdict must be identical, which is the
// findings-byte-identical contract distributed campaigns promise.
func TestShardedExecutionMatchesFlat(t *testing.T) {
	jobs := editJobs(t)
	for _, pruning := range []bool{false, true} {
		opts := Options{
			DisablePruning: !pruning,
			Replayer:       replayer.Options{Pacing: replayer.PaceNone},
			Inspect:        pageOracle,
		}
		flatOpts := opts
		flatOpts.DisablePrefixSharing = true
		flat := New(freshBrowser, flatOpts).Execute(nil, jobs)

		for _, maxJobs := range []int{0, 3, 1} {
			coord := New(freshBrowser, opts)
			plan, ok := coord.PlanShards(nil, jobs, maxJobs)
			if !ok {
				t.Fatalf("pruning=%v maxJobs=%d: campaign not distributable", pruning, maxJobs)
			}
			// Every job is in exactly one shard or already finalized.
			seen := make(map[int]int)
			for _, sh := range plan.Shards {
				if len(sh.Jobs) == 0 {
					t.Fatalf("maxJobs=%d: empty shard", maxJobs)
				}
				if maxJobs > 0 && len(sh.Jobs) > maxJobs {
					t.Errorf("maxJobs=%d: shard with %d jobs", maxJobs, len(sh.Jobs))
				}
				for _, ji := range sh.Jobs {
					seen[ji]++
				}
			}
			for ji := range jobs {
				if n := seen[ji]; n > 1 {
					t.Errorf("job %d in %d shards", ji, n)
				} else if n == 0 && plan.Outcomes[ji].Result == nil && !plan.Outcomes[ji].Pruned {
					t.Errorf("job %d neither sharded nor finalized on a spine", ji)
				}
			}

			runShardsLocally(t, plan, jobs, opts)

			for i := range jobs {
				got, want := plan.Outcomes[i], flat[i]
				if !pruning {
					if g, w := outcomeKey(got), outcomeKey(want); g != w {
						t.Errorf("maxJobs=%d job %d:\nflat:    %s\nsharded: %s", maxJobs, i, w, g)
					}
					continue
				}
				gv, wv := fmt.Sprint(got.Verdict), fmt.Sprint(want.Verdict)
				if gv != wv {
					t.Errorf("pruning maxJobs=%d job %d: verdict %q, flat %q", maxJobs, i, gv, wv)
				}
			}
		}
	}
}

// TestPlanShardsRefusals pins when planning must hand the campaign
// back to local execution.
func TestPlanShardsRefusals(t *testing.T) {
	tr := recordEditSite(t)
	jobs := []Job{{Trace: tr}, {Trace: tr.Clone()}}
	jobs[1].Trace.Commands[len(tr.Commands)-1].XPath = `//div[@id="elsewhere"]`

	if _, ok := New(freshBrowser, Options{DisablePrefixSharing: true}).PlanShards(nil, jobs, 0); ok {
		t.Error("planned with prefix sharing disabled")
	}
	if _, ok := New(freshBrowser, Options{}).PlanShards(nil, jobs[:1], 0); ok {
		t.Error("planned a single-job campaign")
	}
	hooked := Options{Replayer: replayer.Options{Hooks: []replayer.Hooks{{}}}}
	if _, ok := New(freshBrowser, hooked).PlanShards(nil, jobs, 0); ok {
		t.Error("planned with replay hooks attached")
	}

	// A failing command on a shared spine coarsens the plan instead of
	// refusing it: descending with maxJobs=1 makes the planner execute
	// the bogus shared prefix, fail, and ship the whole subtree as one
	// over-sized shard resuming before the descent — the workers replay
	// (and prune) the failure themselves.
	bad := command.Trace{StartURL: tr.StartURL, Commands: []command.Command{
		{Action: command.Click, XPath: `//div[@id="no-such-element"]`, Elapsed: 1},
		tr.Commands[0],
	}}
	badJobs := []Job{{Trace: bad}, {Trace: bad.Clone()}}
	badJobs[1].Trace.Commands[1] = tr.Commands[1]
	// Strict resolution, or the coordinate fallback rescues the bogus
	// click and the spine never fails.
	strict := Options{Replayer: replayer.Options{
		DisableRelaxation: true, DisableCoordinateFallback: true,
	}}
	plan, ok := New(freshBrowser, strict).PlanShards(nil, badJobs, 1)
	if !ok {
		t.Fatal("failing shared spine refused the plan instead of coarsening it")
	}
	both := false
	for _, sh := range plan.Shards {
		if len(sh.Jobs) == 2 && sh.Depth == 0 {
			both = true
		}
	}
	if !both {
		t.Fatalf("failing spine not shipped whole: shards %+v", plan.Shards)
	}
	// At single-level granularity the same jobs shard fine: the spine
	// is never executed, the failure surfaces on workers.
	plan, ok = New(freshBrowser, strict).PlanShards(nil, badJobs, 0)
	if !ok {
		t.Fatal("single-level plan refused")
	}
	if len(plan.Shards) == 0 {
		t.Fatal("single-level plan produced no shards")
	}
}

// TestShardPrefixFallbackMatchesFlat attacks the worker's prefix
// replay: a shard whose shared prefix cannot be replayed — a job
// shorter than the shard depth, jobs that disagree on the prefix, or
// a prefix command that fails — must still produce, outcome by
// outcome, exactly what flat execution of the same jobs produces.
func TestShardPrefixFallbackMatchesFlat(t *testing.T) {
	tr := recordEditSite(t)
	if len(tr.Commands) < 4 {
		t.Fatalf("edit-site trace has %d commands, need 4", len(tr.Commands))
	}
	mutant := func(at int) command.Trace {
		m := tr.Clone()
		m.Commands[at] = tr.Commands[(at+3)%len(tr.Commands)]
		return m
	}
	short := tr.Clone()
	short.Commands = short.Commands[:2]
	bad := command.Trace{StartURL: tr.StartURL, Commands: append([]command.Command{
		{Action: command.Click, XPath: `//div[@id="no-such-element"]`, Elapsed: 1},
	}, tr.Commands...)}
	badMutant := bad.Clone()
	badMutant.Commands[2] = tr.Commands[3]

	cases := []struct {
		name  string
		jobs  []command.Trace
		depth int
	}{
		{"job shorter than depth", []command.Trace{tr, mutant(3), short}, 3},
		{"single job shorter than depth", []command.Trace{short}, 3},
		{"jobs disagree on the prefix", []command.Trace{tr, mutant(1)}, 3},
		{"failing prefix command", []command.Trace{bad, badMutant}, 2},
		{"failing prefix of a single tail", []command.Trace{bad}, 2},
		{"replayable prefix", []command.Trace{tr, mutant(3), mutant(2)}, 2},
	}
	for _, c := range cases {
		jobs := make([]Job, len(c.jobs))
		for i, jt := range c.jobs {
			jobs[i] = Job{Trace: jt}
		}
		for _, pruning := range []bool{false, true} {
			// Strict resolution, or the coordinate fallback rescues the
			// bogus click and the prefix never fails.
			opts := Options{
				DisablePruning: !pruning,
				Replayer: replayer.Options{
					Pacing:            replayer.PaceNone,
					DisableRelaxation: true, DisableCoordinateFallback: true,
				},
				Inspect: pageOracle,
			}
			flatOpts := opts
			flatOpts.DisablePrefixSharing = true
			flat := New(freshBrowser, flatOpts).Execute(nil, jobs)
			got := New(freshBrowser, opts).ExecuteShard(nil, jobs, c.depth)
			for i := range jobs {
				if g, w := outcomeKey(got[i]), outcomeKey(flat[i]); g != w {
					t.Errorf("%s (pruning=%v) job %d:\nflat:  %s\nshard: %s", c.name, pruning, i, w, g)
				}
			}
		}
	}
}
