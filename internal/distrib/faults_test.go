package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/faults"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// faultWorkerNames are the identities startFaultWorkers assigns, in
// order — generated crash ops target these.
func faultWorkerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("test-worker-%d", i)
	}
	return names
}

// startFaultWorkers runs n workers with a fast retry policy and, when
// in is non-nil, a client-side fault-injecting transport. Workers that
// die to a crash directive simply stay dead — exactly like a killed
// warr-worker process.
func startFaultWorkers(t *testing.T, coordinator string, n int, in *faults.Injector) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range faultWorkerNames(n) {
		w := NewWorker(WorkerOptions{
			Coordinator:    coordinator,
			ID:             id,
			Client:         &http.Client{Transport: &faults.Transport{Injector: in}, Timeout: 30 * time.Second},
			PollInterval:   2 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			RetryAttempts:  8,
			RetryBase:      2 * time.Millisecond,
			RetryCap:       50 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// runCampaignDeadline is runCampaign with a convergence watchdog: a
// fault schedule that wedges the protocol should fail the test, not
// hang the suite.
func runCampaignDeadline(t *testing.T, engine *jobs.Engine, spec jobs.Spec, d time.Duration) *weberr.Report {
	t.Helper()
	job, err := engine.Submit(spec)
	if err != nil {
		t.Fatalf("submitting campaign: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("campaign did not converge within %v: %v", d, err)
	}
	if err := job.Err(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	rep := job.Report()
	if rep == nil {
		t.Fatal("campaign produced no report")
	}
	return rep
}

// TestFaultScheduleConvergence is the convergence property test: a
// corpus of generated fault schedules — seeded, so any failure
// reproduces from its seed alone — runs Table II navigation campaigns
// through the distributed path at 1 and 3 workers, and every run must
// produce findings byte-identical to flat in-process execution. Even
// seeds arm the coordinator side (drops, delays, corrupted transfers,
// worker-crash directives); odd seeds arm the workers' client
// transports (which cannot observe grants, so no crash ops). Losing
// the whole fleet to a crash at 1 worker must fall back to local
// execution with the same findings.
func TestFaultScheduleConvergence(t *testing.T) {
	const seeds = 20
	scenarios := apps.TableIIScenarios()

	flats := make([]*weberr.Report, len(scenarios))
	grammars := make([]*weberr.Grammar, len(scenarios))
	for i, sc := range scenarios {
		_, g := scenarioGrammar(t, sc)
		grammars[i] = g
		flatEngine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8})
		flats[i] = runCampaign(t, flatEngine, jobs.Spec{
			Kind: jobs.KindNavigationCampaign, Grammar: g,
			Parallelism: 1, DisablePrefixSharing: true,
		})
		flatEngine.Close()
	}

	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		sci := int(seed) % len(scenarios)
		poolSide := seed%2 == 0
		side := "transport"
		gopts := faults.GenOptions{}
		if poolSide {
			side = "pool"
			gopts.Workers = faultWorkerNames(3)
		}
		sched := faults.Generate(seed, gopts)
		t.Run(fmt.Sprintf("seed%02d_%s", seed, side), func(t *testing.T) {
			for _, n := range []int{1, 3} {
				n := n
				t.Run(fmt.Sprintf("workers%d", n), func(t *testing.T) {
					t.Logf("scenario %s, schedule %s", scenarios[sci].Name, sched)
					// A fresh injector per run: ordinal counters are
					// stateful and must start from zero every time.
					in := faults.NewInjector(sched, t.Logf)
					popts := PoolOptions{LeaseTTL: 300 * time.Millisecond, Logf: t.Logf}
					var clientIn *faults.Injector
					if poolSide {
						popts.Faults = in
					} else {
						clientIn = in
					}
					pool := NewPool(popts)
					srv := httptest.NewServer(pool.Handler())
					t.Cleanup(srv.Close)
					startFaultWorkers(t, srv.URL, n, clientIn)
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					if err := pool.WaitForWorkers(ctx, n); err != nil {
						t.Fatalf("workers never connected: %v", err)
					}
					engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8, Distributor: pool})
					t.Cleanup(engine.Close)
					dist := runCampaignDeadline(t, engine, jobs.Spec{
						Kind: jobs.KindNavigationCampaign, Grammar: grammars[sci],
						Parallelism: 1,
					}, time.Minute)
					assertFindingsEqual(t, fmt.Sprintf("seed %d %s workers=%d", seed, side, n), flats[sci], dist)
					if in.Total() == 0 {
						t.Logf("seed %d: no fault fired (schedule %s never matched)", seed, sched)
					} else {
						t.Logf("seed %d: %d faults fired: %v", seed, in.Total(), in.Fired())
					}
				})
			}
		})
	}
}

// TestLateCompletionAfterReapCreditsOnce is the reaping-idempotency
// regression: a worker leases a shard, goes silent past the TTL (its
// lease is reaped, the shard re-queued), and then its completion
// report arrives late. The token must credit the shard exactly once —
// the re-queued copy is never granted again, a duplicate report is
// acknowledged without merging, and the failover must not count as a
// stolen tail.
func TestLateCompletionAfterReapCreditsOnce(t *testing.T) {
	sc := apps.TableIIScenarios()[0]
	_, g := scenarioGrammar(t, sc)
	copts := weberr.CampaignOptions{Replayer: replayer.Options{Pacing: replayer.PaceNone}}
	plan := weberr.NavigationPlan(g, copts)
	exec := weberr.NavigationExecutor(apps.BrowserFactory(browser.DeveloperMode), copts)

	ttl := 150 * time.Millisecond
	pool := NewPool(PoolOptions{LeaseTTL: ttl, ShardFactor: 4, Logf: t.Logf})

	// The keeper is a phantom worker that only heartbeats: it keeps the
	// pool from declaring the fleet dead while the test drives grants
	// and completions by hand.
	kctx, kcancel := context.WithCancel(context.Background())
	defer kcancel()
	pool.touch("keeper")
	go func() {
		tick := time.NewTicker(ttl / 4)
		defer tick.Stop()
		for {
			select {
			case <-kctx.Done():
				return
			case <-tick.C:
				pool.touch("keeper")
			}
		}
	}()

	type distResult struct {
		outs []campaign.Outcome
		ok   bool
	}
	resCh := make(chan distResult, 1)
	go func() {
		outs, ok := pool.DistributeCampaign(context.Background(), exec, plan, jobs.DistSpec{Campaign: "navigation"})
		resCh <- distResult{outs, ok}
	}()

	// The slow worker leases the first shard, then goes silent.
	pool.touch("slow")
	var slowLease WireLease
	deadline := time.Now().Add(10 * time.Second)
	for {
		slowLease, _ = pool.grant("slow")
		if slowLease.Status == StatusLease {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow worker was never granted a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, slowShard, ok := parseToken(slowLease.Token)
	if !ok {
		t.Fatalf("lease token %q did not parse", slowLease.Token)
	}

	// Wait for the TTL reap to forfeit the silent worker's lease.
	for deadline = time.Now().Add(10 * time.Second); ; {
		pool.mu.Lock()
		_, held := pool.run.leases[slowLease.ID]
		pool.mu.Unlock()
		if !held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent worker's lease was never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	skippedOutcomes := func(l WireLease) []jobs.OutcomeEvent {
		evs := make([]jobs.OutcomeEvent, len(l.Jobs))
		for i := range evs {
			evs[i] = encodeOutcome(i, campaign.Outcome{Skipped: true})
		}
		return evs
	}

	// The late report: the lease is gone, but the token must credit the
	// shard — the work is valid, the worker was merely slow.
	late := CompleteMsg{Worker: "slow", Lease: slowLease.ID, Token: slowLease.Token,
		Outcomes: skippedOutcomes(slowLease), Retries: 2}
	pool.complete(late)
	pool.mu.Lock()
	credited := pool.run != nil && pool.run.completed[slowShard]
	deduped := pool.completionsDeduped
	pool.mu.Unlock()
	if !credited {
		t.Fatalf("late completion of shard %d was not credited", slowShard)
	}
	if deduped != 0 {
		t.Fatalf("late completion was deduplicated (deduped=%d), want credited", deduped)
	}

	// The exact duplicate must be acknowledged but not merged again.
	dup := CompleteMsg{Worker: "slow", Lease: slowLease.ID, Token: slowLease.Token,
		Outcomes: skippedOutcomes(slowLease)}
	pool.complete(dup)

	// Drain the rest through the keeper. The reaped-and-credited shard
	// was re-queued by the reap, but must never be granted again.
	for deadline = time.Now().Add(30 * time.Second); ; {
		select {
		case res := <-resCh:
			if !res.ok {
				t.Fatal("campaign aborted to local execution")
			}
			if len(res.outs) != len(plan) {
				t.Fatalf("campaign merged %d outcomes, want %d", len(res.outs), len(plan))
			}
			if got := poolMetric(t, pool, "warr_completions_deduped_total"); got != "1" {
				t.Errorf("warr_completions_deduped_total = %s, want 1", got)
			}
			if got := poolMetric(t, pool, "warr_distrib_stolen_tails_total"); got != "0" {
				t.Errorf("warr_distrib_stolen_tails_total = %s, want 0 (failover is not stealing)", got)
			}
			if got := poolMetric(t, pool, "warr_retries_total"); got != "2" {
				t.Errorf("warr_retries_total = %s, want the late report's 2", got)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never converged")
		}
		l, _ := pool.grant("keeper")
		if l.Status != StatusLease {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if _, si, _ := parseToken(l.Token); si == slowShard {
			t.Fatalf("credited shard %d was granted again", slowShard)
		}
		pool.complete(CompleteMsg{Worker: "keeper", Lease: l.ID, Token: l.Token,
			Outcomes: skippedOutcomes(l)})
	}
}

// TestCompletionChecksumRejectsCorruption pins the merge-integrity
// edge the checksum exists for: a flipped byte inside a JSON string
// still decodes as JSON, so only Verify keeps it out of the merge. The
// handler must 400 (the worker's retry resends clean bytes), accept
// the intact sealed message, and tolerate unsealed messages from
// older workers.
func TestCompletionChecksumRejectsCorruption(t *testing.T) {
	pool := NewPool(PoolOptions{})
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/complete", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A long token keeps the body's middle byte inside a string value:
	// the corruption decodes fine and only the checksum can catch it.
	msg := CompleteMsg{Worker: "w1", Lease: "lease-1", Token: strings.Repeat("a", 1024) + "/3"}
	if err := msg.Seal(); err != nil {
		t.Fatal(err)
	}
	clean, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}

	resp := post(faults.CorruptBody(append([]byte(nil), clean...)))
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupted completion: %s, want 400", resp.Status)
	}
	if !strings.Contains(string(text), "checksum") {
		t.Errorf("corrupted completion rejected for %q, want the checksum", strings.TrimSpace(string(text)))
	}

	resp = post(clean)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("sealed completion: %s, want 204", resp.Status)
	}

	unsealed, err := json.Marshal(CompleteMsg{Worker: "w1", Lease: "lease-2"})
	if err != nil {
		t.Fatal(err)
	}
	resp = post(unsealed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("unsealed completion: %s, want 204 (older workers carry no checksum)", resp.Status)
	}
}
