package distrib

import (
	"bytes"
	"context"
	"encoding/json"
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
	"github.com/dslab-epfl/warr/internal/errmodel"
	"github.com/dslab-epfl/warr/internal/fnv1a"
	"github.com/dslab-epfl/warr/internal/image"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
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
	// RequestTimeout bounds each control request — lease polls,
	// heartbeats, completions (default 5s). Image downloads get four
	// times this.
	RequestTimeout time.Duration
	// RetryAttempts is how many times a failed image fetch or completion
	// report is retried (default 6) with capped jittered exponential
	// backoff from RetryBase (default 25ms) up to RetryCap (default 2s).
	RetryAttempts int
	RetryBase     time.Duration
	RetryCap      time.Duration
	// EnvFactory overrides how flat-fallback environments are built per
	// browser mode; the default is the process's full app registry —
	// the same worlds the engine uses.
	EnvFactory func(mode browser.Mode) campaign.EnvFactory
	// Logf, when set, receives per-lease notices.
	Logf func(format string, args ...any)
}

// Worker is the executing side of a distributed campaign: it polls the
// coordinator for shard leases, restores each lease's branch-point
// image into a fresh world, continues the subtree through the standard
// campaign scheduler, and reports outcomes in the jobs event
// vocabulary. Image bytes are cached by content digest, so the many
// shards forked from one branch point download their world once.
type Worker struct {
	opts WorkerOptions
	base string
	// cache holds the decoded images of the current run: cacheRun, the
	// run prefix of the latest lease token. prevCache holds what the
	// previous run cached and this one has not reused yet; back-to-back
	// runs of one campaign capture byte-identical images, so a hit there
	// moves to cache instead of being fetched again. A new run drops the
	// leftovers, and an idle reply (no run in flight) drops both.
	cache     map[string]*image.Image
	prevCache map[string]*image.Image
	cacheRun  string

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
		opts:  opts,
		base:  strings.TrimSuffix(opts.Coordinator, "/"),
		cache: make(map[string]*image.Image),
		rng:   rand.New(rand.NewSource(int64(fnv1a.String(opts.ID)))),
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
		l, err := w.lease(ctx)
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
			// window; ask again at once. Idle means no run is in
			// flight, so no cached image will be leased again soon.
			if l.Status == StatusIdle {
				w.forgetImages()
			}
			continue
		}
		if l.Crash {
			w.logf("distrib: %s: crash directive on lease %s; dying", w.opts.ID, l.ID)
			return ErrCrashed
		}
		msg := CompleteMsg{Worker: w.opts.ID, Lease: l.ID, Token: l.Token}
		if l.Campaign == "load" {
			msg.LoadResults = w.executeLoad(ctx, l)
		} else {
			msg.Outcomes = w.execute(ctx, l)
		}
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

// errImageGone is a 404 from GET /image/: the coordinator dropped the
// image with its run, so no retry can bring it back.
var errImageGone = errors.New("distrib: image no longer held by the coordinator")

// retry runs fn under capped jittered exponential backoff. Every extra
// attempt counts into the worker's retry tally, which rides the next
// completion report into warr_retries_total. errImageGone is final.
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
		if err = fn(); err == nil || errors.Is(err, errImageGone) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		w.logf("distrib: %s: %s (attempt %d): %v", w.opts.ID, what, attempt+1, err)
	}
	return err
}

// lease polls the coordinator for work.
func (w *Worker) lease(ctx context.Context) (*WireLease, error) {
	rctx, cancel := context.WithTimeout(ctx, w.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		w.base+"/lease?worker="+url.QueryEscape(w.opts.ID), nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("distrib: lease poll: %s", resp.Status)
	}
	var l WireLease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return nil, err
	}
	if !l.Verify() {
		return nil, errors.New("distrib: lease reply failed checksum verification")
	}
	return &l, nil
}

// execute runs one leased shard: restore the branch-point image and
// continue the subtree, falling back to full flat replays in fresh
// local environments when the image cannot be fetched or restored. A
// heartbeat loop keeps the lease alive for the duration.
func (w *Worker) execute(ctx context.Context, l *WireLease) []jobs.OutcomeEvent {
	w.startRun(l.Token)
	hctx, stop := context.WithCancel(ctx)
	defer stop()
	go w.heartbeat(hctx, l)

	cjobs := make([]campaign.Job, len(l.Jobs))
	for i, wj := range l.Jobs {
		cjobs[i] = campaign.Job{Trace: wj.Trace, Pacing: wj.Pacing}
	}
	exec := w.executor(l)
	var outs []campaign.Outcome
	if img, err := w.fetchImage(ctx, l.Image); err != nil {
		w.logf("distrib: %s: fetching image %s: %v", w.opts.ID, l.Image, err)
	} else if _, sess, err := image.LoadSession(img, ctx, nil); err != nil {
		w.logf("distrib: %s: restoring image %s: %v", w.opts.ID, l.Image, err)
	} else {
		outs = exec.ExecuteSubtree(ctx, cjobs, sess, l.Depth)
	}
	if outs == nil {
		outs = exec.Execute(ctx, cjobs)
	}
	evs := make([]jobs.OutcomeEvent, len(outs))
	for i, out := range outs {
		evs[i] = encodeOutcome(i, out)
	}
	return evs
}

// executeLoad runs one leased load shard: each schedule job rebuilds
// its shared world from the process's workload registry and executes
// deterministically — no image crosses the wire, the schedule codec is
// the whole recipe. A heartbeat loop keeps the lease alive.
func (w *Worker) executeLoad(ctx context.Context, l *WireLease) []multiuser.ScheduleResult {
	hctx, stop := context.WithCancel(ctx)
	defer stop()
	go w.heartbeat(hctx, l)

	results := make([]multiuser.ScheduleResult, 0, len(l.LoadJobs))
	for _, sj := range l.LoadJobs {
		if ctx.Err() != nil {
			return nil
		}
		results = append(results, multiuser.ExecuteScheduleJob(sj))
	}
	return results
}

// executor rebuilds the campaign's executor from the lease: the
// campaign kind names the oracle (the default console oracle — specs
// with custom oracles are never distributed), the mode names the
// environment build, and the replayer options come off the wire.
func (w *Worker) executor(l *WireLease) *campaign.Executor {
	mode := l.Mode
	if mode == 0 {
		mode = browser.DeveloperMode
	}
	copts := weberr.CampaignOptions{
		Replayer:       unwireReplayer(l.Replayer),
		DisablePruning: l.DisablePruning,
		Parallelism:    l.Parallelism,
	}
	newEnv := w.opts.EnvFactory(mode)
	switch l.Campaign {
	case "timing":
		return weberr.TimingExecutor(newEnv, copts)
	case "fuzz":
		// Fuzz shards replay under the coordinator's determinism
		// contract: pruning stays off (the fuzz loop owns the prune
		// table), the oracle gates like the navigation campaign, and
		// every replay reports its coverage fingerprint back. One
		// caveat: durable images do not carry the in-memory event-
		// dispatch counters, so a restored shard's event-lane coverage
		// is relative to its suffix — findings are still identical to
		// local execution, only the corpus-admission split may shift.
		return campaign.New(newEnv, campaign.Options{
			Parallelism:    l.Parallelism,
			Replayer:       unwireReplayer(l.Replayer),
			DisablePruning: true,
			Inspect: func(job campaign.Job, res *replayer.Result, tab *browser.Tab) error {
				if res.Failed > 0 || res.Cancelled {
					return nil
				}
				return weberr.ConsoleOracle(tab, res)
			},
			Coverage: errmodel.CampaignCoverage,
		})
	}
	return weberr.NavigationExecutor(newEnv, copts)
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

// startRun rotates the image cache when a lease token names a new run.
func (w *Worker) startRun(token string) {
	run, _, ok := parseToken(token)
	if !ok || run == w.cacheRun {
		return
	}
	w.prevCache, w.cache = w.cache, make(map[string]*image.Image)
	w.cacheRun = run
}

// forgetImages empties the image cache: no run is in flight.
func (w *Worker) forgetImages() {
	clear(w.cache)
	w.prevCache = nil
}

// fetchImage downloads and validates a branch-point image, caching the
// decoded form by digest. The whole fetch retries under backoff, and
// the retry covers digest mismatches too: a transfer corrupted on the
// wire fails content addressing and the next attempt pulls clean bytes.
func (w *Worker) fetchImage(ctx context.Context, digest string) (*image.Image, error) {
	if img, ok := w.cache[digest]; ok {
		return img, nil
	}
	if img, ok := w.prevCache[digest]; ok {
		delete(w.prevCache, digest)
		w.cache[digest] = img
		return img, nil
	}
	var img *image.Image
	err := w.retry(ctx, "fetching image "+digest, func() error {
		rctx, cancel := context.WithTimeout(ctx, 4*w.opts.RequestTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(rctx, http.MethodGet,
			w.base+"/image/"+url.PathEscape(digest), nil)
		if err != nil {
			return err
		}
		resp, err := w.opts.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return errImageGone
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("distrib: fetching image %s: %s", digest, resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		decoded, got, err := image.Decode(data)
		if err != nil {
			return err
		}
		if got != digest {
			return fmt.Errorf("distrib: image digest mismatch: got %s, want %s", got, digest)
		}
		img = decoded
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.cache[digest] = img
	return img, nil
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
		if err := msg.Seal(); err != nil {
			return err
		}
		body, err := json.Marshal(msg)
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
