package campaign

import (
	"context"
	"sync"

	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// The shared-prefix scheduler: instead of replaying every job's trace
// from command zero in its own environment, it walks the trace trie
// (trie.go), executing each shared prefix exactly once. At a branch
// point it checkpoints the live replay — Session.Fork deep-copies the
// whole environment, server state included — and continues each
// divergent suffix from the checkpoint.
//
// Outcomes are engineered to match flat sequential execution exactly:
//
//   - a job whose trace ends mid-path is finalized with a snapshot of
//     the results so far, and its oracle inspects the page at that
//     instant — the same page a lone replay of that trace ends on;
//   - when a command fails with pruning enabled, the minimum-index job
//     through that prefix replays to its end (as the first flat job to
//     hit the failure would) and every other job sharing the failed
//     prefix is pruned, which is precisely what the PruneTable would
//     have done to them one by one;
//   - a halted prefix (lost active client) finalizes every job through
//     it with the identical partial result a lone replay would produce.
//
// When forking is unavailable — an EnvFactory that hands out browsers
// with no world attached, or an application state without a
// registry.Declarer — each divergent subtree falls back to the classic
// flat path: a fresh environment and a full replay per job (the
// documented fallback of the declared-state contract).
//
// Every run — a whole campaign or one distributed shard — executes on
// one work-sharing pool of Parallelism workers, the caller included
// (greedy work sharing after Blumofe & Leiserson, scaled down to one
// mutex-guarded stack per run). A worker at a branch point takes the
// forks there, before unit 0 changes the live session, so the fork
// count does not depend on scheduling; it shares units 1..n-1 on the
// stack and continues unit 0 itself. A worker that finishes its unit
// takes the next ready one, and the run ends when the stack is empty
// and every worker is idle.
type sharedRun struct {
	e        *Executor
	ctx      context.Context
	jobs     []Job
	outcomes []Outcome
	pool     *unitPool
}

// unitPool is a run's stack of ready branch units. Units are pushed in
// reverse and popped last-in first-out, so with a single worker the
// stack replays depth-first recursion exactly: Parallelism 1 runs the
// classic inline order on the caller's goroutine, with no goroutines.
type unitPool struct {
	mu    sync.Mutex
	ready sync.Cond
	stack []func()
	// workers is the pool size; idle counts workers waiting on ready.
	workers, idle int
	// over is set once the stack is empty with every other worker idle:
	// no running unit is left that could share more.
	over bool
}

// run executes units, and every unit they share, on Parallelism workers:
// the caller plus Parallelism-1 goroutines, all finished when run
// returns. units[0] is taken first.
func (r *sharedRun) run(units ...func()) {
	p := &unitPool{workers: r.e.opts.Parallelism}
	p.ready.L = &p.mu
	for i := len(units) - 1; i >= 0; i-- {
		p.stack = append(p.stack, units[i])
	}
	r.pool = p
	var wg sync.WaitGroup
	for range p.workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.work()
	wg.Wait()
}

// share makes a branch unit available to the next free worker.
func (p *unitPool) share(u func()) {
	p.mu.Lock()
	p.stack = append(p.stack, u)
	p.mu.Unlock()
	p.ready.Signal()
}

// work runs ready units until the run is over.
func (p *unitPool) work() {
	p.mu.Lock()
	for {
		if n := len(p.stack); n > 0 {
			u := p.stack[n-1]
			p.stack[n-1] = nil // the unit's sessions die with it
			p.stack = p.stack[:n-1]
			p.mu.Unlock()
			u()
			p.mu.Lock()
			continue
		}
		if p.over || p.idle == p.workers-1 {
			p.over = true
			p.mu.Unlock()
			p.ready.Broadcast()
			return
		}
		p.idle++
		p.ready.Wait()
		p.idle--
	}
}

// tryExecuteShared runs the jobs through the trie scheduler when it
// can help. ok == false means the caller should use the flat path:
// sharing is disabled, nothing overlaps, or replay hooks are attached
// (hooks observe every step of every job in flat mode; a shared prefix
// would fire them once instead of once per job).
func (e *Executor) tryExecuteShared(ctx context.Context, jobs []Job) ([]Outcome, bool) {
	if e.opts.DisablePrefixSharing || len(jobs) < 2 || len(e.opts.Replayer.Hooks) > 0 {
		return nil, false
	}
	roots := buildTrie(jobs, e.defaultPacing())
	if sharedCommands(roots, jobs) == 0 {
		return nil, false
	}

	r := &sharedRun{e: e, ctx: ctx, jobs: jobs, outcomes: make([]Outcome, len(jobs))}
	units := make([]func(), len(roots))
	for i, root := range roots {
		units[i] = func() { r.runRoot(root) }
	}
	r.run(units...)
	return r.outcomes, true
}

// defaultPacing is the pacing of jobs that do not override it.
func (e *Executor) defaultPacing() replayer.Pacing {
	if e.opts.Replayer.Pacing == 0 {
		return replayer.PaceRecorded
	}
	return e.opts.Replayer.Pacing
}

// newSession opens a replay session of tr, paced as pacing, in a fresh
// environment.
func (e *Executor) newSession(ctx context.Context, tr command.Trace, pacing replayer.Pacing) (*replayer.Session, error) {
	ropts := e.opts.Replayer
	ropts.Pacing = pacing
	return replayer.New(e.newEnv(), ropts).NewSession(ctx, tr)
}

// runRoot opens a fresh environment for one trie root and executes its
// subtree.
func (r *sharedRun) runRoot(root *trieRoot) {
	if r.ctx.Err() != nil {
		r.skipSubtree(root.node)
		return
	}
	s, err := r.e.newSession(r.ctx, r.jobs[root.node.minJob()].Trace, root.key.pacing)
	if err != nil {
		// The start page failed to load. Every job of this root starts
		// on the same page, so each gets the same total-failure outcome
		// a flat run would produce in its own environment.
		for _, ji := range root.node.collectJobs(nil) {
			out := Outcome{Index: ji, Job: r.jobs[ji], Err: err,
				Result: &replayer.Result{Failed: len(r.jobs[ji].Trace.Commands)}}
			if r.e.opts.Inspect != nil {
				out.Verdict = r.e.opts.Inspect(out.Job, out.Result, s.Tab())
			}
			if r.e.opts.Coverage != nil {
				out.Coverage = r.e.opts.Coverage(out.Result, s.Tab())
			}
			r.outcomes[ji] = out
		}
		return
	}
	r.runSubtree(s, root.node, root.node.minJob(), false)
}

// runSubtree consumes sess — positioned right after node's command —
// finalizing jobs that end at node and descending into its children.
// curJob is the job whose trace the session currently carries (the
// scheduler retargets only when the subtree minimum changes, because
// a per-edge prefix re-validation would turn long mutant traces
// quadratic). failed records whether a command already failed on this
// path (only possible with pruning disabled; with pruning on, a
// failure ends trie descent immediately).
func (r *sharedRun) runSubtree(sess *replayer.Session, node *trieNode, curJob int, failed bool) {
	units := branchUnits(node)
	n := len(units)
	for i, ji := range node.terminal {
		// The last job finalized on a session that ends here owns the
		// session's live result; everyone else gets a snapshot (the
		// session keeps appending for them).
		last := n == 0 && i == len(node.terminal)-1
		r.finalizeShared(ji, sess, !last)
	}
	if n == 0 {
		return
	}
	// Checkpoint: units beyond the first get forks of the current
	// state (taken before unit 0 mutates it); unit 0 continues in the
	// live session, so a branch with n divergent continuations costs
	// n-1 forks.
	forks := make([]*replayer.Session, n)
	forks[0] = sess
	for i := 1; i < n; i++ {
		f, err := sess.ForkFor(r.jobs[units[i].min()].Trace)
		if err != nil {
			// Unforkable world: this subtree replays flat — fresh
			// environment, full trace — job by job.
			r.flatUnit(units[i])
			continue
		}
		forks[i] = f
	}
	for i := n - 1; i >= 1; i-- {
		if f, u := forks[i], units[i]; f != nil {
			r.pool.share(func() { r.runUnit(f, node, u, u.min(), failed) })
		}
	}
	r.runUnit(sess, node, units[0], curJob, failed)
}

// branchUnit is one divergent continuation below a node: a materialized
// child subtree, or a parked single-job tail.
type branchUnit struct {
	child *trieNode // nil for a tail
	tail  int
}

func (u branchUnit) min() int {
	if u.child != nil {
		return u.child.minJob()
	}
	return u.tail
}

// branchUnits merges a node's children and tails in minimum-job order —
// the order flat sequential execution would first reach each divergent
// continuation. Both inputs are already sorted by minimum.
func branchUnits(node *trieNode) []branchUnit {
	if len(node.children) == 0 && len(node.tails) == 0 {
		return nil
	}
	units := make([]branchUnit, 0, len(node.children)+len(node.tails))
	ci, ti := 0, 0
	for ci < len(node.children) || ti < len(node.tails) {
		switch {
		case ci == len(node.children):
			units = append(units, branchUnit{tail: node.tails[ti]})
			ti++
		case ti == len(node.tails) || node.children[ci].minJob() < node.tails[ti]:
			units = append(units, branchUnit{child: node.children[ci]})
			ci++
		default:
			units = append(units, branchUnit{tail: node.tails[ti]})
			ti++
		}
	}
	return units
}

// runUnit dispatches one divergent continuation.
func (r *sharedRun) runUnit(sess *replayer.Session, node *trieNode, u branchUnit, curJob int, failed bool) {
	if u.child != nil {
		r.descend(sess, u.child, curJob, failed)
		return
	}
	r.runTail(sess, node, u.tail, curJob, failed)
}

// runTail replays a parked tail: job t's remaining commands below node,
// shared with nobody. Prefix digests chain incrementally for the same
// pruning checks and failure recording the node walk performs — the
// flat path's Prunable over the whole trace, probed as each prefix is
// about to execute.
func (r *sharedRun) runTail(sess *replayer.Session, node *trieNode, t int, curJob int, failed bool) {
	r.runTailFrom(sess, node.digest, node.depth, t, curJob, failed)
}

// runTailFrom is runTail starting from an explicit prefix position: h
// is the chained digest of the first startDepth commands of job t's
// trace, which sess has already replayed. Distributed shards use it
// directly — a single-job shard resumes after its replayed prefix with
// no trie node to anchor to.
func (r *sharedRun) runTailFrom(sess *replayer.Session, h prefixDigest, startDepth int, t int, curJob int, failed bool) {
	if t != curJob {
		if err := sess.Retarget(r.jobs[t].Trace); err != nil {
			r.outcomes[t] = r.e.runJob(r.ctx, t, r.jobs[t])
			return
		}
	}
	for _, cmd := range r.jobs[t].Trace.Commands[startDepth:] {
		h = commandDigest(h, cmd)
		if !r.e.opts.DisablePruning && !failed && r.e.prune.prunableDigest(h) {
			r.outcomes[t] = Outcome{Index: t, Job: r.jobs[t], Pruned: true}
			return
		}
		step, ok := sess.Next()
		if !ok {
			// Cancelled mid-tail (the trace cannot be exhausted here):
			// the job keeps its partial result, as a flat in-flight job
			// would.
			r.finalizeShared(t, sess, false)
			return
		}
		if step.Status == replayer.StepFailed {
			if !r.e.opts.DisablePruning {
				if !failed {
					r.e.prune.recordDigest(h)
				}
				sess.Run()
				r.finalizeShared(t, sess, false)
				return
			}
			if sess.Result().Halted {
				r.finalizeShared(t, sess, false)
				return
			}
			failed = true
		}
	}
	r.finalizeShared(t, sess, false)
}

// descend executes child's command on sess and continues into child's
// subtree.
func (r *sharedRun) descend(sess *replayer.Session, child *trieNode, curJob int, failed bool) {
	if !r.e.opts.DisablePruning && r.e.prune.prunableDigest(child.digest) {
		// A recorded failed prefix: every job through this node shares
		// it, exactly the set Prunable would discard one by one.
		r.pruneSubtree(child, -1)
		return
	}
	min := child.minJob()
	if min != curJob {
		// The subtree minimum changed (a lower-indexed job ended at an
		// ancestor): point the session at the new minimum's trace. The
		// trie construction guarantees the replayed prefix matches, so
		// this validates at most once per minimum change rather than
		// per edge.
		if err := sess.Retarget(r.jobs[min].Trace); err != nil {
			// Cannot happen; fall back to flat execution rather than
			// lose the jobs.
			r.flatSubtree(child)
			return
		}
	}

	step, ok := sess.Next()
	if !ok {
		if sess.Result().Cancelled {
			// Mid-campaign cancellation: the executing job keeps its
			// partial result (as an in-flight flat job would); the
			// rest of the subtree never started.
			r.finalize(min, sess)
			r.skipSubtreeExcept(child, min)
			return
		}
		// Defensive: the trie never descends past the minimum job's
		// trace, and halts surface through a failed step below.
		r.skipSubtree(child)
		return
	}

	if step.Status == replayer.StepFailed {
		if !r.e.opts.DisablePruning {
			// First failure on this path. The minimum-index job is the
			// first flat job to reach it: it records the failed prefix
			// and still replays to its end; every other job in the
			// subtree shares the failed prefix and is pruned.
			if !failed {
				r.e.prune.recordDigest(child.digest)
			}
			sess.Run()
			r.finalizeShared(min, sess, false)
			r.pruneSubtree(child, min)
			return
		}
		if sess.Result().Halted {
			// The driver lost its active client: a lone replay of any
			// job through this prefix would halt with exactly this
			// partial result.
			r.finalizeSubtree(child, sess)
			return
		}
		failed = true
	}
	r.runSubtree(sess, child, min, failed)
}

// flatUnit replays one unforkable divergent continuation flat.
func (r *sharedRun) flatUnit(u branchUnit) {
	if u.child != nil {
		r.flatSubtree(u.child)
		return
	}
	r.outcomes[u.tail] = r.e.runJob(r.ctx, u.tail, r.jobs[u.tail])
}

// finalize snapshots sess's result as job ji's outcome and runs the
// campaign oracle on the session's page.
func (r *sharedRun) finalize(ji int, sess *replayer.Session) {
	r.finalizeShared(ji, sess, true)
}

// finalizeShared is finalize with control over result ownership: the
// last job finalized on a session takes the live Result without a deep
// copy — the majority of jobs end exactly where their session ends.
func (r *sharedRun) finalizeShared(ji int, sess *replayer.Session, snapshot bool) {
	r.outcomes[ji] = r.e.finalizeOutcome(ji, r.jobs[ji], sess, snapshot)
}

// finalizeOutcome builds a job's outcome from sess's result — a deep
// copy when snapshot is set, the live Result otherwise — and runs the
// campaign oracle on the session's page. The shard planner shares it
// with the trie scheduler so spine-finalized jobs get outcomes of the
// exact same shape.
func (e *Executor) finalizeOutcome(ji int, job Job, sess *replayer.Session, snapshot bool) Outcome {
	res := sess.Result()
	if snapshot {
		res = res.Clone()
	}
	out := Outcome{Index: ji, Job: job, Result: res}
	if e.opts.Inspect != nil {
		out.Verdict = e.opts.Inspect(out.Job, out.Result, sess.Tab())
	}
	if e.opts.Coverage != nil {
		out.Coverage = e.opts.Coverage(out.Result, sess.Tab())
	}
	return out
}

// finalizeSubtree gives every not-yet-finalized job of the subtree a
// copy of sess's (halted) result.
func (r *sharedRun) finalizeSubtree(node *trieNode, sess *replayer.Session) {
	for _, ji := range node.collectJobs(nil) {
		r.finalize(ji, sess)
	}
}

// pruneSubtree marks the subtree's jobs pruned, except the one that
// replayed the failure (-1 prunes all).
func (r *sharedRun) pruneSubtree(node *trieNode, except int) {
	for _, ji := range node.collectJobs(nil) {
		if ji == except {
			continue
		}
		r.outcomes[ji] = Outcome{Index: ji, Job: r.jobs[ji], Pruned: true}
	}
}

// skipSubtree marks the subtree's jobs as never started.
func (r *sharedRun) skipSubtree(node *trieNode) {
	r.skipSubtreeExcept(node, -1)
}

func (r *sharedRun) skipSubtreeExcept(node *trieNode, except int) {
	for _, ji := range node.collectJobs(nil) {
		if ji == except {
			continue
		}
		r.outcomes[ji] = Outcome{Index: ji, Job: r.jobs[ji], Skipped: true}
	}
}

// flatSubtree replays every job of the subtree through the classic
// flat path — fresh environment, full trace, shared PruneTable — the
// documented fallback when the environment cannot fork.
func (r *sharedRun) flatSubtree(node *trieNode) {
	for _, ji := range node.collectJobs(nil) {
		r.outcomes[ji] = r.e.runJob(r.ctx, ji, r.jobs[ji])
	}
}
