package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/fnv1a"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/registry"
)

// workerSeq disambiguates default worker ids within one process
// (weberr -workers N runs several workers in-process).
var workerSeq atomic.Int64

// ErrCrashed is returned by Run when a lease carries the fault
// injector's crash directive: the worker dies on the spot — no
// execution, no heartbeat, no report — and its leases expire through
// the coordinator's normal TTL reaping.
var ErrCrashed = errors.New("distrib: worker killed by crash directive")

// WorkerOptions configure a campaign worker.
type WorkerOptions struct {
	// Coordinator is the base URL of the pool's handler, e.g.
	// http://127.0.0.1:8080/api/distrib.
	Coordinator string
	// ID names the worker to the coordinator; leases and liveness are
	// keyed by it. Defaults to worker-<pid>-<n>.
	ID string
	// Client is the HTTP client. The default carries a 30s overall
	// timeout — a worker must never hang forever on a stuck coordinator
	// socket.
	Client *http.Client
	// PollInterval is the initial backoff after a failed lease poll
	// (default 50ms); failing polls back off exponentially from it up
	// to RetryCap. An idle or wait reply is re-polled at once: the
	// coordinator holds each poll open until a shard is queued or its
	// hold window ends.
	PollInterval time.Duration
	// RequestTimeout bounds each request — lease polls, heartbeats,
	// completions (default 5s).
	RequestTimeout time.Duration
	// RetryAttempts is how many times a failed completion report is
	// retried (default 6) with capped jittered exponential backoff from
	// RetryBase (default 25ms) up to RetryCap (default 2s).
	RetryAttempts int
	RetryBase     time.Duration
	RetryCap      time.Duration
	// EnvFactory overrides how shard environments are built per browser
	// mode; the default is the process's full app registry — the same
	// worlds the engine uses.
	EnvFactory func(mode browser.Mode) campaign.EnvFactory
	// Logf, when set, receives per-lease notices.
	Logf func(format string, args ...any)
}

// Worker is the executing side of a distributed campaign: it polls the
// coordinator for shard leases, replays each lease's shared prefix in a
// fresh world, continues the subtree through the standard campaign
// scheduler, and reports outcomes in the jobs event vocabulary.
type Worker struct {
	opts WorkerOptions
	base string

	// retries tallies request retries since the last completion report;
	// each report carries the tally to the coordinator's
	// warr_retries_total counter.
	retries atomic.Int64

	// rng drives backoff jitter, seeded from the worker's ID so a fleet
	// retrying the same outage spreads out deterministically per worker.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewWorker returns a worker ready to Run.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("worker-%d-%d", os.Getpid(), workerSeq.Add(1))
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 50 * time.Millisecond
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.RetryAttempts <= 0 {
		opts.RetryAttempts = 6
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 25 * time.Millisecond
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = 2 * time.Second
	}
	if opts.EnvFactory == nil {
		opts.EnvFactory = func(mode browser.Mode) campaign.EnvFactory {
			return registry.BrowserFactory(mode)
		}
	}
	return &Worker{
		opts: opts,
		base: strings.TrimSuffix(opts.Coordinator, "/"),
		rng:  rand.New(rand.NewSource(int64(fnv1a.String(opts.ID)))),
	}
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.opts.ID }

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Run polls for leases until ctx is cancelled. A worker killed
// mid-shard simply stops heartbeating: the coordinator re-queues the
// lease, so Run never reports a partially-executed shard.
func (w *Worker) Run(ctx context.Context) error {
	pollDelay := w.opts.PollInterval
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		l, cjobs, err := w.lease(ctx)
		if err != nil {
			// A failing poll backs off exponentially (with jitter, up to
			// RetryCap) so a fleet does not hammer a struggling
			// coordinator.
			w.logf("distrib: %s: lease poll: %v", w.opts.ID, err)
			w.retries.Add(1)
			delay := pollDelay + w.jitter(pollDelay)
			if pollDelay *= 2; pollDelay > w.opts.RetryCap {
				pollDelay = w.opts.RetryCap
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			continue
		}
		pollDelay = w.opts.PollInterval
		if l.Status != StatusLease {
			// The coordinator already held this poll for its hold
			// window; ask again at once.
			continue
		}
		if l.Crash {
			w.logf("distrib: %s: crash directive on lease %s; dying", w.opts.ID, l.ID)
			return ErrCrashed
		}
		// A heartbeat loop keeps the lease alive while the shard runs.
		hctx, stop := context.WithCancel(ctx)
		go w.heartbeat(hctx, l)
		msg := w.execute(ctx, l, cjobs)
		stop()
		if ctx.Err() != nil {
			// Dying mid-shard: report nothing. Partial outcomes must not
			// merge — the lease expires and the shard re-runs whole.
			return ctx.Err()
		}
		if err := w.complete(ctx, msg); err != nil {
			w.logf("distrib: %s: reporting lease %s: %v", w.opts.ID, l.ID, err)
		}
	}
}

// jitter draws a random delay in [0, d/2] from the worker's seeded rng.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return time.Duration(w.rng.Int63n(int64(d)/2 + 1))
}

// retry runs fn under capped jittered exponential backoff. Every extra
// attempt counts into the worker's retry tally, which rides the next
// completion report into warr_retries_total.
func (w *Worker) retry(ctx context.Context, what string, fn func() error) error {
	var err error
	backoff := w.opts.RetryBase
	for attempt := 0; attempt <= w.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			w.retries.Add(1)
			d := backoff + w.jitter(backoff)
			if backoff *= 2; backoff > w.opts.RetryCap {
				backoff = w.opts.RetryCap
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		}
		if err = fn(); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		w.logf("distrib: %s: %s (attempt %d): %v", w.opts.ID, what, attempt+1, err)
	}
	return err
}

// lease polls the coordinator for work, returning the reply and the
// shard's jobs expanded from its command dictionary.
func (w *Worker) lease(ctx context.Context) (*WireLease, []campaign.Job, error) {
	rctx, cancel := context.WithTimeout(ctx, w.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		w.base+"/lease?worker="+url.QueryEscape(w.opts.ID), nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("distrib: lease poll: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return decodeLease(body)
}

// execute runs one leased shard and builds its report. A campaign
// shard runs on the executor the job kind table rebuilds from the
// lease: the shared prefix replays in a fresh world and the subtree
// continues through the standard campaign scheduler
// (campaign.Executor.ExecuteShard). A load shard executes each
// schedule job in a fresh shared world from the process's workload
// registry — the schedule codec is the whole recipe. A trace shard of a
// campaign this build does not know reports no outcomes, which the
// coordinator rejects.
func (w *Worker) execute(ctx context.Context, l *WireLease, cjobs []campaign.Job) CompleteMsg {
	msg := CompleteMsg{Worker: w.opts.ID, Lease: l.ID, Token: l.Token}
	if exec := l.ShardExecutor(w.opts.EnvFactory); exec != nil {
		for i, out := range exec.ExecuteShard(ctx, cjobs, l.Depth) {
			msg.Outcomes = append(msg.Outcomes, encodeOutcome(i, out))
		}
		return msg
	}
	for _, sj := range l.LoadJobs {
		if ctx.Err() != nil {
			break
		}
		msg.LoadResults = append(msg.LoadResults, multiuser.ExecuteScheduleJob(sj))
	}
	return msg
}

// heartbeat renews the worker's liveness at a third of the lease TTL
// until the shard finishes.
func (w *Worker) heartbeat(ctx context.Context, l *WireLease) {
	ttl := time.Duration(l.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		// One bounded attempt per tick, no retry: a missed heartbeat is
		// recovered by the next tick, and a worker stuck waiting on one
		// would miss its TTL anyway.
		func() {
			rctx, cancel := context.WithTimeout(ctx, w.opts.RequestTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(rctx, http.MethodPost,
				w.base+"/heartbeat?worker="+url.QueryEscape(w.opts.ID), nil)
			if err != nil {
				return
			}
			if resp, err := w.opts.Client.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
	}
}

// complete reports the shard's outcomes, retrying under backoff: a
// dropped or corrupted transfer resends the same sealed message, and
// the coordinator's completion tokens make any duplicate harmless.
func (w *Worker) complete(ctx context.Context, msg CompleteMsg) error {
	return w.retry(ctx, "reporting lease "+msg.Lease, func() error {
		// Fold the retries spent so far — including this loop's own —
		// into the report, and seal last: the checksum covers the final
		// shape, so a transfer flipping any byte is rejected server-side.
		msg.Retries += w.retries.Swap(0)
		body, err := seal(msg)
		if err != nil {
			return err
		}
		rctx, cancel := context.WithTimeout(ctx, w.opts.RequestTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.base+"/complete", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.opts.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("distrib: completion rejected: %s", resp.Status)
		}
		return nil
	})
}
