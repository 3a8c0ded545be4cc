package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/faults"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
)

// PoolOptions configure a coordinator pool.
type PoolOptions struct {
	// LeaseTTL is how long a worker may go silent before its leases are
	// forfeited and their shards re-queued (default 10s). Workers
	// heartbeat at a fraction of this while executing, and a lease poll
	// with no shard to grant is held open for a tenth of it (at most
	// 1s).
	LeaseTTL time.Duration
	// ShardFactor is the target number of shards per connected worker
	// (default 4): campaigns are split so every worker gets several
	// shards, which is what lets an idle worker steal a parked tail
	// from the queue instead of sitting out the stragglers.
	ShardFactor int
	// Faults, when armed, injects the schedule's coordinator-side
	// faults: lease/complete/heartbeat requests are dropped,
	// delayed, or corrupted before the handlers serve them, and crash
	// ops mark granted leases with the worker-death directive. nil
	// injects nothing and costs one nil check per request.
	Faults *faults.Injector
	// Logf, when set, receives re-queue and protocol notices.
	Logf func(format string, args ...any)
}

// Pool is the coordinator side of a distributed campaign: it implements
// jobs.Distributor over a fleet of polling workers. One campaign runs
// at a time; while the pool is busy (or no worker is connected) it
// refuses, and the engine executes locally — distribution is an
// optimization, never a requirement.
type Pool struct {
	opts PoolOptions
	mux  *http.ServeMux

	mu        sync.Mutex
	workers   map[string]time.Time
	run       *poolRun
	nextLease int
	runSeq    int
	// wake is closed and replaced whenever the queue gains a shard,
	// releasing every held lease poll at once.
	wake chan struct{}
	// parkedPolls counts lease polls currently held open.
	parkedPolls atomic.Int64

	campaigns     int
	loadCampaigns int

	// completionsDeduped counts completion reports acknowledged but not
	// merged: duplicates of an already-merged shard, or reports from a
	// campaign that is long over. retriesReported accumulates the
	// request retries workers spent (CompleteMsg.Retries).
	completionsDeduped int
	retriesReported    int64
}

// poolRun is one distributed run in flight: n shards that the pool
// grants, re-queues and credits by index alone. What differs between a
// campaign run and a load run is in its three functions.
type poolRun struct {
	n int
	// fill writes shard i's work into a granted lease. A run without
	// fill is the placeholder holding the slot while the run is
	// planned: lease polls answer wait.
	fill func(l *WireLease, i int)
	// merge folds a worker's report of shard i into the run; an error
	// rejects the report and re-queues the shard.
	merge func(msg CompleteMsg, i int) error
	// cancel ends the run when its context is cancelled, with the pool
	// locked, and reports whether the run's results stand.
	cancel func(completed []bool) bool

	token     string // completion-token prefix, unique per run
	queue     []int
	leases    map[string]*lease
	completed []bool
	remaining int
	done      chan struct{}
}

type lease struct {
	id     string
	shard  int
	worker string
}

// NewPool returns an idle coordinator. Mount Handler somewhere workers
// can reach (warr-serve mounts it under /api/distrib/) and hand the
// pool to the job engine as its Distributor.
func NewPool(opts PoolOptions) *Pool {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.ShardFactor < 1 {
		opts.ShardFactor = 4
	}
	p := &Pool{
		opts:    opts,
		workers: make(map[string]time.Time),
		wake:    make(chan struct{}),
	}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("POST /lease", p.handleLease)
	p.mux.HandleFunc("POST /complete", p.handleComplete)
	p.mux.HandleFunc("POST /heartbeat", p.handleHeartbeat)
	return p
}

// Handler returns the coordinator's HTTP surface: POST /lease, POST
// /complete, POST /heartbeat. An older worker's GET /image/{digest}
// gets 404 and replays its shard flat.
func (p *Pool) Handler() http.Handler { return p.mux }

// EmptyStore is what Store returns: a store that never holds anything.
//
// Deprecated: kept only so existing metric readers still compile.
type EmptyStore struct{}

// Len returns 0.
func (EmptyStore) Len() int { return 0 }

// Digests returns no digest.
func (EmptyStore) Digests() []string { return nil }

// Bytes finds nothing.
func (EmptyStore) Bytes(string) ([]byte, bool) { return nil, false }

// Store returns an empty store.
//
// Deprecated: shards carry no world state; workers replay each shard's
// shared prefix instead, so the pool stores nothing.
func (p *Pool) Store() EmptyStore { return EmptyStore{} }

func (p *Pool) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// touch records contact from a worker; every request a worker makes —
// lease polls, heartbeats, completions — renews its liveness.
func (p *Pool) touch(worker string) {
	p.mu.Lock()
	p.workers[worker] = time.Now()
	p.mu.Unlock()
}

func (p *Pool) connectedLocked() int {
	n, now := 0, time.Now()
	for _, last := range p.workers {
		if now.Sub(last) <= p.opts.LeaseTTL {
			n++
		}
	}
	return n
}

// ConnectedWorkers counts workers heard from within the lease TTL.
func (p *Pool) ConnectedWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.connectedLocked()
}

// WaitForWorkers blocks until at least n workers are connected or ctx
// expires.
func (p *Pool) WaitForWorkers(ctx context.Context, n int) error {
	for p.ConnectedWorkers() < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("distrib: %d of %d workers connected: %w", p.ConnectedWorkers(), n, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// wakeLocked releases every held lease poll: the queue just gained a
// shard.
func (p *Pool) wakeLocked() {
	close(p.wake)
	p.wake = make(chan struct{})
}

// DistributeCampaign implements jobs.Distributor: plan the trie into
// shards bounded so each connected worker gets ShardFactor of them,
// and feed the shard queue to polling workers until every outcome is
// merged. ok == false — no
// workers, pool busy, the plan refused, or every worker died
// mid-campaign — hands the campaign back for local execution, which is
// always equivalent (planning runs no oracle side effects a local
// Execute cannot repeat). Context cancellation ends the campaign the
// way a local cancelled campaign does: unmerged shards resolve to
// skipped outcomes.
func (p *Pool) DistributeCampaign(ctx context.Context, exec *campaign.Executor, plan []campaign.Job, spec jobs.DistSpec) ([]campaign.Outcome, bool) {
	var sp *campaign.ShardPlan
	ok := p.distribute(ctx, &p.campaigns, func(ctx context.Context, workers int) *poolRun {
		maxJobs := (len(plan) + p.opts.ShardFactor*workers - 1) / (p.opts.ShardFactor * workers)
		var ok bool
		if sp, ok = exec.PlanShards(ctx, plan, maxJobs); !ok {
			return nil
		}
		// A plan of no shards ended every job on a shared spine and
		// finalized it during planning; there is nothing to distribute.
		return &poolRun{
			n: len(sp.Shards),
			fill: func(l *WireLease, i int) {
				l.DistSpec, l.Depth = spec, sp.Shards[i].Depth
				l.Commands, l.Jobs = encodeJobs(plan, sp.Shards[i].Jobs)
			},
			merge: func(msg CompleteMsg, i int) error {
				outs := make([]campaign.Outcome, len(msg.Outcomes))
				for k, ev := range msg.Outcomes {
					outs[k] = decodeOutcome(ev)
				}
				return sp.Merge(sp.Shards[i], outs)
			},
			cancel: func(completed []bool) bool {
				for i, done := range completed {
					if done {
						continue
					}
					outs := make([]campaign.Outcome, len(sp.Shards[i].Jobs))
					for k := range outs {
						outs[k] = campaign.Outcome{Skipped: true}
					}
					if err := sp.Merge(sp.Shards[i], outs); err != nil {
						p.logf("distrib: skipping shard %d: %v", i, err)
					}
				}
				return true
			},
		}
	})
	if !ok {
		return nil, false
	}
	return sp.Outcomes, true
}

// DistributeLoad implements jobs.LoadDistributor: shard the campaign's
// deduplicated schedule jobs by schedule prefix (jobs whose
// interleavings start at the same user land on the same worker, so a
// worker explores one contention neighbourhood at a time) and feed the
// shard queue to polling workers. Schedule execution is deterministic,
// so a re-queued shard re-run by a surviving worker — or a duplicate
// completion dropped by first-merge-wins — yields the same results,
// and findings are identical to local execution under any sharding.
// The results come back in merge order; the campaign reorders them by
// job index. A load run has no skipped-result shape, so context
// cancellation hands it back to local execution, which reports the
// cancellation.
func (p *Pool) DistributeLoad(ctx context.Context, sjobs []multiuser.ScheduleJob, spec jobs.DistSpec) ([]multiuser.ScheduleResult, bool) {
	out := make([]multiuser.ScheduleResult, 0, len(sjobs))
	ok := p.distribute(ctx, &p.loadCampaigns, func(context.Context, int) *poolRun {
		shards := shardSchedules(sjobs)
		return &poolRun{
			n:    len(shards),
			fill: func(l *WireLease, i int) { l.DistSpec, l.LoadJobs = spec, shards[i] },
			merge: func(msg CompleteMsg, i int) error {
				shard := shards[i]
				if len(msg.LoadResults) != len(shard) {
					return fmt.Errorf("%d results for %d jobs", len(msg.LoadResults), len(shard))
				}
				for k, r := range msg.LoadResults {
					if r.Index != shard[k].Index {
						return fmt.Errorf("job index %d at position %d, want %d", r.Index, k, shard[k].Index)
					}
				}
				out = append(out, msg.LoadResults...)
				return nil
			},
			cancel: func([]bool) bool { return false },
		}
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// distribute is the one run path of both kinds of run. It holds the
// pool's run slot, has plan build the run for the connected workers
// (unlocked: lease polls meanwhile answer wait), issues the run's
// completion token, queues every shard, wakes the parked polls, awaits
// the run, and frees the slot, counting the run into counter. ok is
// false when no worker is connected, the pool is busy, plan refuses
// (returns nil), or the run went back to local execution; a run of no
// shards succeeds at once.
func (p *Pool) distribute(ctx context.Context, counter *int, plan func(ctx context.Context, workers int) *poolRun) bool {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	workers := p.connectedLocked()
	if workers == 0 || p.run != nil {
		p.mu.Unlock()
		return false
	}
	placeholder := &poolRun{}
	p.run = placeholder
	p.mu.Unlock()

	run := plan(ctx, workers)
	if run == nil || run.n == 0 {
		p.clearRun(placeholder)
		return run != nil
	}
	run.leases = make(map[string]*lease)
	run.completed = make([]bool, run.n)
	run.remaining = run.n
	run.done = make(chan struct{})
	for i := 0; i < run.n; i++ {
		run.queue = append(run.queue, i)
	}
	p.mu.Lock()
	p.runSeq++
	run.token = fmt.Sprintf("run-%d", p.runSeq)
	p.run = run
	*counter++
	p.wakeLocked()
	p.mu.Unlock()

	ok := p.await(ctx, run)
	p.clearRun(run)
	return ok
}

// shardSchedules groups schedule jobs by prefix: world size plus the
// first scheduled user. Grouping is deterministic (first-appearance
// order) and independent of worker count.
func shardSchedules(sjobs []multiuser.ScheduleJob) [][]multiuser.ScheduleJob {
	index := make(map[string]int)
	var shards [][]multiuser.ScheduleJob
	for _, sj := range sjobs {
		key := sj.Workload + "\x00" + sj.Schedule
		if s, err := multiuser.ParseSchedule(sj.Schedule); err == nil && len(s.Slots) > 0 {
			key = fmt.Sprintf("%s\x00%d:%d", sj.Workload, sj.Users, s.Slots[0])
		}
		si, ok := index[key]
		if !ok {
			si = len(shards)
			index[key] = si
			shards = append(shards, nil)
		}
		shards[si] = append(shards[si], sj)
	}
	return shards
}

// clearRun frees the run's slot: a worker still holding one of its
// leases has its completion deduplicated.
func (p *Pool) clearRun(run *poolRun) {
	p.mu.Lock()
	if p.run == run {
		p.run = nil
	}
	p.mu.Unlock()
}

// await blocks until the run completes, reaping dead workers as it
// waits. Context cancellation ends the run as its cancel says, and no
// report merges after it. Losing the whole fleet aborts to local
// execution.
func (p *Pool) await(ctx context.Context, run *poolRun) bool {
	tick := p.opts.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-run.done:
			return true
		case <-ctx.Done():
			p.mu.Lock()
			defer p.mu.Unlock()
			stands := run.cancel(run.completed)
			for i := range run.completed {
				run.completed[i] = true
			}
			return stands
		case <-t.C:
			if !p.reap(run) {
				return false
			}
		}
	}
}

// reap forfeits the leases of workers silent past the TTL and re-queues
// their shards. It reports false — abort to local execution — when no
// connected worker remains while work is outstanding.
func (p *Pool) reap(run *poolRun) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	requeued := false
	for w, last := range p.workers {
		if now.Sub(last) <= p.opts.LeaseTTL {
			continue
		}
		delete(p.workers, w)
		for id, l := range run.leases {
			if l.worker != w {
				continue
			}
			delete(run.leases, id)
			if !run.completed[l.shard] {
				run.queue = append(run.queue, l.shard)
				requeued = true
				p.logf("distrib: worker %s silent past %v; re-queued shard %d", w, p.opts.LeaseTTL, l.shard)
			}
		}
	}
	if requeued {
		p.wakeLocked()
	}
	return run.remaining == 0 || len(p.workers) > 0
}

// grant hands the next queued shard to a polling worker. It also
// returns the current wake channel: if nothing was granted, it closes
// once the queue gains a shard.
func (p *Pool) grant(worker string) (WireLease, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.grantLocked(worker), p.wake
}

func (p *Pool) grantLocked(worker string) WireLease {
	run := p.run
	if run == nil {
		return WireLease{Status: StatusIdle}
	}
	if run.fill == nil {
		return WireLease{Status: StatusWait}
	}
	// Skip queue entries whose shard already completed: a reaped shard
	// re-queued and then credited through a late completion token must
	// not be executed again.
	si := -1
	for len(run.queue) > 0 {
		si = run.queue[0]
		run.queue = run.queue[1:]
		if !run.completed[si] {
			break
		}
		si = -1
	}
	if si < 0 {
		return WireLease{Status: StatusWait}
	}
	p.nextLease++
	l := &lease{id: fmt.Sprintf("lease-%d", p.nextLease), shard: si, worker: worker}
	run.leases[l.id] = l
	wl := WireLease{
		Status:    StatusLease,
		ID:        l.id,
		TTLMillis: p.opts.LeaseTTL.Milliseconds(),
		Token:     fmt.Sprintf("%s/%d", run.token, si),
		Crash:     p.opts.Faults.OnGrant(worker),
	}
	run.fill(&wl, si)
	return wl
}

// parseToken splits a completion token into its run prefix and shard
// index.
func parseToken(tok string) (run string, shard int, ok bool) {
	i := strings.LastIndexByte(tok, '/')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(tok[i+1:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return tok[:i], n, true
}

// complete merges a worker's shard report. Completions are idempotent
// through the lease token: a late report from a reaped lease still
// credits its shard (the work is valid — the worker was slow, not
// wrong), while duplicates of an already-merged shard and reports from
// a campaign long over are acknowledged but not double-counted. The
// first merge wins either way; re-queued work replays the same shard,
// so any completion is equivalent.
func (p *Pool) complete(msg CompleteMsg) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retriesReported += msg.Retries
	run := p.run
	if run == nil || run.fill == nil {
		p.completionsDeduped++
		return
	}
	si := -1
	if l, ok := run.leases[msg.Lease]; ok {
		si = l.shard
		delete(run.leases, msg.Lease)
	} else if prefix, shard, ok := parseToken(msg.Token); ok &&
		prefix == run.token && shard < len(run.completed) {
		// The lease was reaped, but the token proves the report belongs
		// to this run's shard.
		si = shard
	}
	if si < 0 || run.completed[si] {
		p.completionsDeduped++
		if si >= 0 {
			p.logf("distrib: deduplicated completion of shard %d from %s", si, msg.Worker)
		}
		return
	}
	if err := run.merge(msg, si); err != nil {
		p.logf("distrib: rejecting shard %d report from %s: %v", si, msg.Worker, err)
		p.requeueLocked(run, si)
		return
	}
	run.completed[si] = true
	run.remaining--
	if run.remaining == 0 {
		close(run.done)
	}
}

// forfeit re-queues the shards a polling worker still holds. A worker
// runs one shard at a time and polls only between shards, so a lease
// it holds when it polls was lost on the way: a grant reply dropped or
// corrupted in flight, or a completion that ran out of retries. The
// worker keeps polling, so the TTL reap would never free it.
func (p *Pool) forfeit(worker string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	run := p.run
	if run == nil {
		return
	}
	for id, l := range run.leases {
		if l.worker != worker {
			continue
		}
		delete(run.leases, id)
		if !run.completed[l.shard] {
			p.logf("distrib: worker %s polled while holding %s; re-queued shard %d", worker, id, l.shard)
			p.requeueLocked(run, l.shard)
		}
	}
}

// requeueLocked puts a shard back on the queue unless it is already
// waiting there (a reaped shard whose late report was then rejected
// must not be granted twice).
func (p *Pool) requeueLocked(run *poolRun, si int) {
	for _, q := range run.queue {
		if q == si {
			return
		}
	}
	run.queue = append(run.queue, si)
	p.wakeLocked()
}

// inject applies the armed fault schedule to one inbound request:
// delays hold the handler, drops answer 503 without serving (the
// worker's retry policy or the lease TTL recovers). It reports whether
// the request survived; the returned action's Corrupt flag is the
// handler's to honor on the bytes it transfers.
func (p *Pool) inject(w http.ResponseWriter, r *http.Request, path faults.Path) (faults.Action, bool) {
	act := p.opts.Faults.Request(path)
	if act.Delay > 0 {
		select {
		case <-r.Context().Done():
			return act, false
		case <-time.After(time.Duration(act.Delay)):
		}
	}
	if act.Drop {
		http.Error(w, fmt.Sprintf("distrib: fault injected: dropped %s request", path), http.StatusServiceUnavailable)
		return act, false
	}
	return act, true
}

func (p *Pool) handleLease(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		http.Error(w, "distrib: lease poll without worker id", http.StatusBadRequest)
		return
	}
	act, ok := p.inject(w, r, faults.PathLease)
	if !ok {
		return
	}
	p.touch(worker)
	l, ok := p.holdForGrant(r.Context(), worker)
	if !ok {
		return
	}
	p.touch(worker)
	body, err := seal(l)
	if err != nil {
		http.Error(w, fmt.Sprintf("distrib: sealing lease: %v", err), http.StatusInternalServerError)
		return
	}
	if act.Corrupt {
		// The worker's seal check must refuse the damaged grant; its
		// next poll forfeits the lease and the shard is granted again.
		body = faults.CorruptBody(body)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// maxHold caps the lease-poll hold window: it must stay under the
// worker's default 5s request timeout and warr-serve's 5s shutdown
// budget whatever the lease TTL.
const maxHold = time.Second

// holdWindow is how long a lease poll with nothing to grant is held: a
// tenth of the lease TTL, so a parked worker stays well inside its
// liveness window, and at most maxHold.
func (p *Pool) holdWindow() time.Duration {
	return min(p.opts.LeaseTTL/10, maxHold)
}

// holdForGrant is the long poll behind POST /lease: it grants a shard
// the moment one is queued, or answers wait/idle when the hold window
// passes with nothing to grant. ok is false when the client went away
// first.
func (p *Pool) holdForGrant(ctx context.Context, worker string) (l WireLease, ok bool) {
	p.forfeit(worker)
	l, wake := p.grant(worker)
	if l.Status == StatusLease {
		return l, true
	}
	p.parkedPolls.Add(1)
	defer p.parkedPolls.Add(-1)
	hold := time.NewTimer(p.holdWindow())
	defer hold.Stop()
	for l.Status != StatusLease {
		select {
		case <-wake:
		case <-hold.C:
			return l, true
		case <-ctx.Done():
			return l, false
		}
		l, wake = p.grant(worker)
	}
	return l, true
}

func (p *Pool) handleComplete(w http.ResponseWriter, r *http.Request) {
	act, ok := p.inject(w, r, faults.PathComplete)
	if !ok {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("distrib: reading completion: %v", err), http.StatusBadRequest)
		return
	}
	if act.Corrupt {
		body = faults.CorruptBody(body)
	}
	var msg CompleteMsg
	if err := json.Unmarshal(body, &msg); err != nil {
		http.Error(w, fmt.Sprintf("distrib: decoding completion: %v", err), http.StatusBadRequest)
		return
	}
	if !verifySealed(body, msg.Sum) {
		// A flipped byte inside a JSON string still decodes; the checksum
		// over the received bytes is what keeps corrupted results out of
		// the merge. The worker's retry resends the same sealed bytes
		// over a clean transfer.
		http.Error(w, "distrib: completion failed checksum verification", http.StatusBadRequest)
		return
	}
	if msg.Worker != "" {
		p.touch(msg.Worker)
	}
	p.complete(msg)
	w.WriteHeader(http.StatusNoContent)
}

func (p *Pool) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		http.Error(w, "distrib: heartbeat without worker id", http.StatusBadRequest)
		return
	}
	if _, ok := p.inject(w, r, faults.PathHeartbeat); !ok {
		return
	}
	p.touch(worker)
	w.WriteHeader(http.StatusNoContent)
}

// WriteMetrics appends the pool's gauges and counters in Prometheus
// text format; warr-serve concatenates them onto the engine's /metrics
// page.
func (p *Pool) WriteMetrics(w io.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	leased := 0
	if p.run != nil {
		leased = len(p.run.leases)
	}
	fmt.Fprintf(w, "# HELP warr_distrib_workers_connected Worker processes heard from within the lease TTL.\n")
	fmt.Fprintf(w, "# TYPE warr_distrib_workers_connected gauge\n")
	fmt.Fprintf(w, "warr_distrib_workers_connected %d\n", p.connectedLocked())
	fmt.Fprintf(w, "# HELP warr_distrib_leased_shards Shards currently leased to workers.\n")
	fmt.Fprintf(w, "# TYPE warr_distrib_leased_shards gauge\n")
	fmt.Fprintf(w, "warr_distrib_leased_shards %d\n", leased)
	fmt.Fprintf(w, "# HELP warr_distrib_parked_polls Lease polls currently held open waiting for a shard.\n")
	fmt.Fprintf(w, "# TYPE warr_distrib_parked_polls gauge\n")
	fmt.Fprintf(w, "warr_distrib_parked_polls %d\n", p.parkedPolls.Load())
	fmt.Fprintf(w, "# HELP warr_distrib_campaigns_total Campaigns the pool accepted for distribution.\n")
	fmt.Fprintf(w, "# TYPE warr_distrib_campaigns_total counter\n")
	fmt.Fprintf(w, "warr_distrib_campaigns_total %d\n", p.campaigns)
	fmt.Fprintf(w, "# HELP warr_distrib_load_campaigns_total Load campaigns the pool accepted for distribution.\n")
	fmt.Fprintf(w, "# TYPE warr_distrib_load_campaigns_total counter\n")
	fmt.Fprintf(w, "warr_distrib_load_campaigns_total %d\n", p.loadCampaigns)
	fmt.Fprintf(w, "# HELP warr_faults_injected_total Faults the armed schedule injected into coordinator-side request handling.\n")
	fmt.Fprintf(w, "# TYPE warr_faults_injected_total counter\n")
	fmt.Fprintf(w, "warr_faults_injected_total %d\n", p.opts.Faults.Total())
	fmt.Fprintf(w, "# HELP warr_retries_total Request retries workers reported spending against dropped, delayed, or corrupted transfers.\n")
	fmt.Fprintf(w, "# TYPE warr_retries_total counter\n")
	fmt.Fprintf(w, "warr_retries_total %d\n", p.retriesReported)
	fmt.Fprintf(w, "# HELP warr_completions_deduped_total Completion reports acknowledged without merging: duplicates of an already-merged shard or reports for a finished campaign.\n")
	fmt.Fprintf(w, "# TYPE warr_completions_deduped_total counter\n")
	fmt.Fprintf(w, "warr_completions_deduped_total %d\n", p.completionsDeduped)
}
