package campaign

import (
	"context"
	"fmt"
	"sort"

	"github.com/dslab-epfl/warr/internal/replayer"
)

// Distributed campaign support: the trace-trie scheduler (shared.go)
// split across processes. A coordinator replays each root's shared
// spine exactly once and hands out shards — disjoint subsets of jobs
// plus the depth of the branch point they share — to workers. A worker
// reaches the branch point by replaying the shard's shared prefix in a
// fresh environment of its own (replay reproduces the session, so the
// prefix is the recipe for the world) and continues the subtree with
// the very same scheduler, so distributed execution is the in-process
// shared path with process boundaries at branch points.
//
// Findings are identical to flat single-process execution under any
// sharding: a pruned trace can never produce a finding (its replay
// would fail at the shared prefix, and oracles skip failed replays),
// so per-shard prune tables only shift the Replayed/Pruned split,
// never the verdicts.

// Shard is one unit of distributable campaign work: a subset of the
// plan's jobs that share their first Depth commands. Jobs are
// ascending original job indices; a worker executes the shard with
// ExecuteShard and returns one outcome per job, in Jobs order.
type Shard struct {
	Jobs  []int
	Depth int
}

// ShardPlan is the coordinator's side of a distributed campaign:
// shards to hand out, plus the outcomes the planning walk already
// finalized locally (jobs whose traces end on a shared spine — their
// oracle ran on the coordinator's live session, exactly as the
// in-process scheduler would). Every job index appears in exactly one
// shard or carries a finalized outcome; Merge fills the rest in as
// workers report back.
type ShardPlan struct {
	Shards   []Shard
	Outcomes []Outcome

	jobs []Job
}

// Merge copies a shard's worker outcomes into the plan. Worker
// outcomes are indexed by position in the shard and their Job carries
// only what crossed the wire; Merge rebinds each to its original index
// and the coordinator's job — restoring Meta, which never leaves the
// coordinator.
func (pl *ShardPlan) Merge(sh Shard, outcomes []Outcome) error {
	if len(outcomes) != len(sh.Jobs) {
		return fmt.Errorf("campaign: shard has %d jobs, merge got %d outcomes", len(sh.Jobs), len(outcomes))
	}
	for i, out := range outcomes {
		ji := sh.Jobs[i]
		if ji < 0 || ji >= len(pl.Outcomes) {
			return fmt.Errorf("campaign: shard job index %d out of range [0,%d)", ji, len(pl.Outcomes))
		}
		out.Index = ji
		out.Job = pl.jobs[ji]
		pl.Outcomes[ji] = out
	}
	return nil
}

// PlanShards partitions a campaign for distributed execution. The
// coordinator replays each trie root's shared spine once; at every
// branch point it emits one shard per divergent continuation small
// enough (at most maxJobs jobs — 0 means a single level of sharding),
// descending into larger continuations to split them further. Jobs
// whose traces end on a spine are finalized locally, oracle included.
//
// maxJobs is a target, not a guarantee: when a spine command fails (an
// injected error sitting on a shared prefix) or a world refuses to
// fork, the planner stops descending there and ships that whole
// subtree as one shard resuming at the last good branch point —
// graceful degradation to a coarser split rather than refusing the
// campaign.
//
// ok == false means the campaign is not distributable — sharing is
// disabled, hooks are attached, too few jobs, or ctx was cancelled —
// and the caller should Execute locally. Planning has no side effects
// a local Execute cannot repeat: oracles only inspect, and nothing is
// recorded in the prune table.
func (e *Executor) PlanShards(ctx context.Context, jobs []Job, maxJobs int) (*ShardPlan, bool) {
	if e.opts.DisablePrefixSharing || len(jobs) < 2 || len(e.opts.Replayer.Hooks) > 0 {
		return nil, false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if maxJobs < 1 {
		maxJobs = len(jobs)
	}
	p := &shardPlanner{
		e: e, ctx: ctx, jobs: jobs, maxJobs: maxJobs,
		plan: &ShardPlan{Outcomes: make([]Outcome, len(jobs)), jobs: jobs},
	}
	for _, root := range buildTrie(jobs, e.defaultPacing()) {
		if !p.planRoot(root) {
			return nil, false
		}
	}
	return p.plan, true
}

// shardPlanner walks trie spines on live sessions, emitting shards at
// branch points.
type shardPlanner struct {
	e       *Executor
	ctx     context.Context
	jobs    []Job
	maxJobs int
	plan    *ShardPlan
	// abort marks a hard planning failure — context cancellation — that
	// unwinds the whole plan. Soft failures (a failed spine command, an
	// unforkable world) only coarsen the split.
	abort bool
}

// planRoot opens a fresh environment on one trie root and plans its
// subtree.
func (p *shardPlanner) planRoot(root *trieRoot) bool {
	if p.ctx.Err() != nil {
		return false
	}
	sess, err := p.e.newSession(p.ctx, p.jobs[root.node.minJob()].Trace, root.key.pacing)
	if err != nil {
		return false
	}
	return p.planNode(sess, root.node, root.node.minJob())
}

// planNode consumes sess — positioned right after node's command —
// finalizing jobs that end here, sharding small divergent
// continuations, and descending into large ones.
// It returns false only for hard failures (p.abort is then set).
func (p *shardPlanner) planNode(sess *replayer.Session, node *trieNode, curJob int) bool {
	for _, ji := range node.terminal {
		p.plan.Outcomes[ji] = p.e.finalizeOutcome(ji, p.jobs[ji], sess, true)
	}
	units := branchUnits(node)
	if len(units) == 0 {
		return true
	}
	// A parked tail is one job; a child subtree within maxJobs ships
	// whole. Larger subtrees are descended into and split at their own
	// branch points; this node is the resume point of every unit the
	// planner cannot descend into.
	var small, big []branchUnit
	for _, u := range units {
		if u.child != nil && len(u.child.collectJobs(nil)) > p.maxJobs {
			big = append(big, u)
		} else {
			small = append(small, u)
		}
	}
	shard := func(u branchUnit) {
		var sj []int
		if u.child != nil {
			sj = u.child.collectJobs(nil)
			sort.Ints(sj)
		} else {
			sj = []int{u.tail}
		}
		p.plan.Shards = append(p.plan.Shards, Shard{Jobs: sj, Depth: node.depth})
	}
	for _, u := range small {
		shard(u)
	}
	if len(big) == 0 {
		return true
	}
	// As in runSubtree: continuations beyond the first get forks taken
	// before the live session mutates; the first keeps the session. A
	// world that refuses to fork ships that subtree whole instead.
	forks := make([]*replayer.Session, len(big))
	forks[0] = sess
	for i := 1; i < len(big); i++ {
		if f, err := sess.ForkFor(p.jobs[big[i].child.minJob()].Trace); err == nil {
			forks[i] = f
		}
	}
	for i, u := range big {
		if forks[i] == nil {
			shard(u)
			continue
		}
		cur := curJob
		if i > 0 {
			// ForkFor already retargeted the fork to its subtree's
			// minimum trace.
			cur = u.child.minJob()
		}
		if !p.descend(forks[i], u.child, cur) {
			if p.abort {
				return false
			}
			// The subtree's spine failed mid-descent: its shared prefix
			// carries an injected error. Ship it whole from this node —
			// the workers will replay (and prune) the failure
			// themselves, exactly as local execution would.
			shard(u)
		}
	}
	return true
}

// descend executes child's command on sess and continues planning in
// child's subtree. A failed or refused command reports false so the
// caller can ship the subtree unplanned; cancellation is a hard abort.
func (p *shardPlanner) descend(sess *replayer.Session, child *trieNode, curJob int) bool {
	if p.ctx.Err() != nil {
		p.abort = true
		return false
	}
	min := child.minJob()
	if min != curJob {
		if err := sess.Retarget(p.jobs[min].Trace); err != nil {
			return false
		}
	}
	step, ok := sess.Next()
	if !ok || step.Status == replayer.StepFailed {
		if p.ctx.Err() != nil {
			p.abort = true
		}
		return false
	}
	return p.planNode(sess, child, min)
}

// ExecuteShard replays one shard of a distributed campaign: jobs are
// the shard's jobs (outcomes are indexed by position in this slice,
// not by the coordinator's indices — ShardPlan.Merge rebinds them),
// and every one of them agrees on its first depth commands. The shard
// replays that shared prefix once in a fresh environment, then
// continues through the same trie scheduler in-process branches use,
// including the executor's pruning, parallelism, and Inspect oracle.
// A shard whose prefix cannot be replayed — a job shorter than depth,
// jobs that disagree on it, or a prefix command that fails — falls
// back to full flat replays in fresh environments.
func (e *Executor) ExecuteShard(ctx context.Context, jobs []Job, depth int) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &sharedRun{e: e, ctx: ctx, jobs: jobs, outcomes: make([]Outcome, len(jobs))}
	r.run(func() {
		if !r.execShard(depth) {
			r.flatAll()
		}
	})
	return r.outcomes
}

// execShard positions the shard's trie at depth, replays the shared
// prefix, and hands the subtree to the shared scheduler. It reports
// false, having finalized no job, when the shard must replay flat.
func (r *sharedRun) execShard(depth int) bool {
	if len(r.jobs) == 0 {
		return true
	}
	var node *trieNode
	if len(r.jobs) > 1 {
		roots := buildTrie(r.jobs, r.e.defaultPacing())
		if len(roots) != 1 {
			// Shard jobs share a start URL and pacing by construction.
			return false
		}
		// With two or more jobs sharing at least depth commands, the
		// trie spine to depth is fully materialized (tail splitting
		// creates one node per shared command); a job shorter than
		// depth ends the spine early.
		node = roots[0].node
		for node.depth < depth {
			if len(node.children) != 1 || len(node.terminal) > 0 || len(node.tails) > 0 {
				return false
			}
			node = node.children[0]
		}
	}
	pacing := r.jobs[0].Pacing
	if pacing == 0 {
		pacing = r.e.defaultPacing()
	}
	sess, err := r.e.newSession(r.ctx, r.jobs[0].Trace, pacing)
	if err != nil {
		return false
	}
	for range depth {
		// !ok also catches a single job shorter than depth.
		if step, ok := sess.Next(); !ok || step.Status == replayer.StepFailed {
			return false
		}
	}
	// The session carries job 0's trace, and job 0 — the shard's
	// minimum — runs through node.
	if node == nil {
		// A single parked tail: no trie needed.
		r.runTailFrom(sess, tracePrefixDigest(r.jobs[0].Trace, depth), depth, 0, 0, false)
	} else {
		r.runSubtree(sess, node, 0, false)
	}
	return true
}

// flatAll replays every shard job through the classic flat path.
func (r *sharedRun) flatAll() {
	for ji := range r.jobs {
		r.outcomes[ji] = r.e.runJob(r.ctx, ji, r.jobs[ji])
	}
}
