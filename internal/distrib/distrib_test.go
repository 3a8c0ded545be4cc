package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/experiments"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// scenarioGrammar records a Table II scenario and infers its grammar —
// the front half of the engine's navigation-campaign path.
func scenarioGrammar(t *testing.T, sc apps.Scenario) (*experiments.Recorded, *weberr.Grammar) {
	t.Helper()
	rec, err := experiments.RecordScenario(sc)
	if err != nil {
		t.Fatalf("recording %s: %v", sc.Name, err)
	}
	tree, err := weberr.InferTaskTree(apps.BrowserFactory(browser.DeveloperMode), rec.Trace)
	if err != nil {
		t.Fatalf("inferring %s: %v", sc.Name, err)
	}
	return rec, weberr.FromTaskTree(tree)
}

// runCampaign submits one campaign job and waits for its report.
func runCampaign(t *testing.T, engine *jobs.Engine, spec jobs.Spec) *weberr.Report {
	t.Helper()
	job, err := engine.Submit(spec)
	if err != nil {
		t.Fatalf("submitting campaign: %v", err)
	}
	_ = job.Wait(nil)
	if err := job.Err(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	rep := job.Report()
	if rep == nil {
		t.Fatal("campaign produced no report")
	}
	return rep
}

// startWorkers runs n pool workers against the coordinator URL and
// stops them at test end.
func startWorkers(t *testing.T, coordinator string, n int) {
	t.Helper()
	startWorkersPolling(t, coordinator, n, 2*time.Millisecond)
}

// startWorkersPolling runs n pool workers with the given PollInterval.
// stop cancels them and waits until every Run has returned; it also
// runs at test end.
func startWorkersPolling(t *testing.T, coordinator string, n int, poll time.Duration) (workers []*Worker, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerOptions{
			Coordinator:  coordinator,
			ID:           fmt.Sprintf("test-worker-%d", i),
			PollInterval: poll,
		})
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	stop = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return workers, stop
}

// distribEngine wires a pool, its HTTP surface, and n workers into a
// fresh job engine.
func distribEngine(t *testing.T, workers int, ttl time.Duration) (*jobs.Engine, *Pool) {
	t.Helper()
	pool := NewPool(PoolOptions{LeaseTTL: ttl, Logf: t.Logf})
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(srv.Close)
	startWorkers(t, srv.URL, workers)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.WaitForWorkers(ctx, workers); err != nil {
		t.Fatalf("workers never connected: %v", err)
	}
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8, Distributor: pool})
	t.Cleanup(engine.Close)
	return engine, pool
}

// assertFindingsEqual requires the distributed report's findings to be
// byte-identical to the flat one's — injection and observation, in
// canonical order.
func assertFindingsEqual(t *testing.T, label string, flat, dist *weberr.Report) {
	t.Helper()
	if flat.Generated != dist.Generated {
		t.Errorf("%s: generated %d traces, flat %d", label, dist.Generated, flat.Generated)
	}
	fk, dk := experiments.FindingKeys(flat), experiments.FindingKeys(dist)
	if !reflect.DeepEqual(fk, dk) {
		t.Errorf("%s: findings diverged\nflat:        %v\ndistributed: %v", label, fk, dk)
	}
	// The Replayed/Pruned split may shift across shard boundaries, but
	// nothing may be lost.
	if ft, dt := flat.Replayed+flat.Pruned+flat.Skipped, dist.Replayed+dist.Pruned+dist.Skipped; ft != dt {
		t.Errorf("%s: accounted %d traces, flat %d", label, dt, ft)
	}
}

// TestDistributedMatchesFlat runs the navigation campaign of every
// Table II scenario through a coordinator and worker fleet and
// requires findings byte-identical to flat single-process execution.
// The first scenario also runs at several worker counts.
func TestDistributedMatchesFlat(t *testing.T) {
	for i, sc := range apps.TableIIScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			_, g := scenarioGrammar(t, sc)
			spec := jobs.Spec{
				Kind: jobs.KindNavigationCampaign, Grammar: g,
				Parallelism: 1, DisablePrefixSharing: true,
			}
			flatEngine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8})
			defer flatEngine.Close()
			flat := runCampaign(t, flatEngine, spec)

			counts := []int{2}
			if i == 0 {
				counts = []int{1, 2, 3}
			}
			for _, n := range counts {
				engine, pool := distribEngine(t, n, time.Second)
				spec := spec
				spec.DisablePrefixSharing = false
				dist := runCampaign(t, engine, spec)
				assertFindingsEqual(t, fmt.Sprintf("%s workers=%d", sc.Name, n), flat, dist)
				if got := poolMetric(t, pool, "warr_distrib_campaigns_total"); got == "0" {
					t.Errorf("workers=%d: campaign was not distributed", n)
				}
			}
		})
	}
}

// TestDistributedTimingMatchesFlat covers the timing campaign: mixed
// pacing puts jobs in different trie roots, so the plan mixes real
// branch-point shards with whole-root tails.
func TestDistributedTimingMatchesFlat(t *testing.T) {
	sc := apps.TableIIScenarios()[0]
	rec, _ := scenarioGrammar(t, sc)
	spec := jobs.Spec{Kind: jobs.KindTimingCampaign, Trace: rec.Trace, DisablePrefixSharing: true}

	flatEngine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8})
	defer flatEngine.Close()
	flat := runCampaign(t, flatEngine, spec)

	engine, _ := distribEngine(t, 2, time.Second)
	spec.DisablePrefixSharing = false
	dist := runCampaign(t, engine, spec)
	assertFindingsEqual(t, "timing", flat, dist)
}

// TestWorkerDeathRequeues injects a worker that leases a shard and
// dies without heartbeating or reporting. Its lease must expire, the
// shard must re-queue, and the surviving worker must still deliver
// findings identical to flat execution.
func TestWorkerDeathRequeues(t *testing.T) {
	sc := apps.TableIIScenarios()[0]
	_, g := scenarioGrammar(t, sc)
	spec := jobs.Spec{
		Kind: jobs.KindNavigationCampaign, Grammar: g,
		Parallelism: 1, DisablePrefixSharing: true,
	}
	flatEngine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8})
	defer flatEngine.Close()
	flat := runCampaign(t, flatEngine, spec)

	ttl := 250 * time.Millisecond
	pool := NewPool(PoolOptions{LeaseTTL: ttl, Logf: t.Logf})
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	// The doomed worker: polls until it is granted a lease, then goes
	// silent forever, holding the shard hostage until the TTL reaps it.
	died := make(chan string, 1)
	go func() {
		for {
			resp, err := http.Post(srv.URL+"/lease?worker=doomed", "", nil)
			if err != nil {
				return
			}
			var l WireLease
			err = json.NewDecoder(resp.Body).Decode(&l)
			resp.Body.Close()
			if err != nil {
				return
			}
			if l.Status == StatusLease {
				died <- l.ID
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	startWorkers(t, srv.URL, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.WaitForWorkers(ctx, 2); err != nil {
		t.Fatalf("workers never connected: %v", err)
	}

	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8, Distributor: pool})
	defer engine.Close()
	spec.DisablePrefixSharing = false
	dist := runCampaign(t, engine, spec)

	select {
	case <-died:
	default:
		t.Error("the doomed worker was never granted a lease")
	}
	assertFindingsEqual(t, "after worker death", flat, dist)
}

// TestPoolRefusals pins when the pool hands campaigns back to local
// execution.
func TestPoolRefusals(t *testing.T) {
	sc := apps.TableIIScenarios()[0]
	_, g := scenarioGrammar(t, sc)
	copts := weberr.CampaignOptions{Replayer: replayer.Options{Pacing: replayer.PaceNone}}
	plan := weberr.NavigationPlan(g, copts)
	exec := weberr.NavigationExecutor(apps.BrowserFactory(browser.DeveloperMode), copts)

	// No workers connected.
	pool := NewPool(PoolOptions{})
	if _, ok := pool.DistributeCampaign(nil, exec, plan, jobs.DistSpec{Campaign: "navigation"}); ok {
		t.Error("distributed a campaign with no workers connected")
	}

	// Busy pool: a placeholder run occupies the slot.
	pool.touch("w1")
	pool.mu.Lock()
	pool.run = &poolRun{}
	pool.mu.Unlock()
	if _, ok := pool.DistributeCampaign(nil, exec, plan, jobs.DistSpec{Campaign: "navigation"}); ok {
		t.Error("distributed a campaign while another was running")
	}
}

// poolMetric extracts one metric value from the pool's Prometheus text.
func poolMetric(t *testing.T, pool *Pool, name string) string {
	t.Helper()
	var b strings.Builder
	pool.WriteMetrics(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metric %s not present in:\n%s", name, b.String())
	return ""
}

// TestPoolMetrics checks the worker-pool gauges warr-serve appends to
// /metrics.
func TestPoolMetrics(t *testing.T) {
	pool := NewPool(PoolOptions{LeaseTTL: time.Second})
	for _, name := range []string{
		"warr_distrib_workers_connected",
		"warr_distrib_leased_shards",
		"warr_distrib_images_shipped_total",
		"warr_distrib_stolen_tails_total",
		"warr_distrib_campaigns_total",
		"warr_distrib_parked_polls",
	} {
		if got := poolMetric(t, pool, name); got != "0" {
			t.Errorf("idle pool: %s = %s, want 0", name, got)
		}
	}
	pool.touch("w1")
	if got := poolMetric(t, pool, "warr_distrib_workers_connected"); got != "1" {
		t.Errorf("workers_connected = %s after contact, want 1", got)
	}
}

// TestLeaseEndpointValidation pins the HTTP protocol edges workers rely
// on.
func TestLeaseEndpointValidation(t *testing.T) {
	pool := NewPool(PoolOptions{})
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/lease", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("anonymous lease poll: %s, want 400", resp.Status)
	}

	resp, err = http.Post(srv.URL+"/lease?worker="+url.QueryEscape("w1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var l WireLease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if l.Status != StatusIdle {
		t.Errorf("idle pool leased %q, want %q", l.Status, StatusIdle)
	}

	resp, err = http.Get(srv.URL + "/image/no-such-digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing image: %s, want 404", resp.Status)
	}
}

// TestOutcomeWireRoundTrip pins the outcome ↔ OutcomeEvent mapping the
// completion protocol rests on.
func TestOutcomeWireRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		out    campaign.Outcome
		status string
	}{
		{"skipped", campaign.Outcome{Skipped: true}, "skipped"},
		{"pruned", campaign.Outcome{Pruned: true}, "pruned"},
		{"no result", campaign.Outcome{Err: fmt.Errorf("navigation failed")}, "skipped"},
		{"cancelled", campaign.Outcome{Result: &replayer.Result{Played: 3, Failed: 0, Cancelled: true}}, "cancelled"},
		{"replayed", campaign.Outcome{Result: &replayer.Result{Played: 5, Failed: 1}}, "replayed"},
		{"finding", campaign.Outcome{
			Result:  &replayer.Result{Played: 5},
			Verdict: fmt.Errorf("console errors: boom"),
		}, "replayed"},
	}
	for i, c := range cases {
		ev := encodeOutcome(i, c.out)
		if ev.Status != c.status {
			t.Errorf("%s: status %q, want %q", c.name, ev.Status, c.status)
		}
		if ev.Index != i {
			t.Errorf("%s: index %d, want %d", c.name, ev.Index, i)
		}
		back := decodeOutcome(ev)
		if back.Skipped != (c.status == "skipped") || back.Pruned != c.out.Pruned {
			t.Errorf("%s: decoded flags diverged: %+v", c.name, back)
		}
		if c.out.Result != nil && c.status != "skipped" {
			if back.Result == nil {
				t.Fatalf("%s: result lost", c.name)
			}
			if back.Result.Played != c.out.Result.Played || back.Result.Failed != c.out.Result.Failed ||
				back.Result.Cancelled != c.out.Result.Cancelled {
				t.Errorf("%s: result diverged: %+v", c.name, back.Result)
			}
		}
		if (c.out.Verdict != nil) != (back.Verdict != nil) {
			t.Errorf("%s: verdict lost or invented", c.name)
		} else if c.out.Verdict != nil && back.Verdict.Error() != c.out.Verdict.Error() {
			t.Errorf("%s: verdict %q, want %q", c.name, back.Verdict, c.out.Verdict)
		}
	}
}
