package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/faults"
	"github.com/dslab-epfl/warr/internal/image"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// pollLease makes one lease poll as worker and decodes the reply.
func pollLease(ctx context.Context, base, worker string) (WireLease, error) {
	var l WireLease
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/lease?worker="+url.QueryEscape(worker), nil)
	if err != nil {
		return l, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return l, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return l, errors.New(resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&l)
	return l, err
}

// waitParked blocks until the pool holds exactly n lease polls.
func waitParked(t *testing.T, pool *Pool, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pool.parkedPolls.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked polls = %d, want %d", pool.parkedPolls.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// installLoadRun puts a one-shard load run on the pool, as
// DistributeLoad would, without waiting on it.
func installLoadRun(pool *Pool) *poolRun {
	run := &poolRun{
		token:      "run-1",
		queue:      []int{0},
		leases:     make(map[string]*lease),
		completed:  make([]bool, 1),
		remaining:  1,
		done:       make(chan struct{}),
		loadShards: [][]multiuser.ScheduleJob{{{Index: 0}}},
	}
	pool.mu.Lock()
	pool.run = run
	pool.wakeLocked()
	pool.mu.Unlock()
	return run
}

// tableIICampaign builds a navigation campaign over a Table II scenario
// the way the engine's runner does.
func tableIICampaign(t *testing.T, sc apps.Scenario) (plan []campaign.Job, newExec func() *campaign.Executor, spec jobs.DistSpec) {
	t.Helper()
	_, g := scenarioGrammar(t, sc)
	copts := weberr.CampaignOptions{Replayer: replayer.Options{Pacing: replayer.PaceNone}}
	plan = weberr.NavigationPlan(g, copts)
	newExec = func() *campaign.Executor {
		return weberr.NavigationExecutor(apps.BrowserFactory(browser.DeveloperMode), copts)
	}
	spec = jobs.DistSpec{Campaign: "navigation", Mode: browser.DeveloperMode, Replayer: copts.Replayer}
	return plan, newExec, spec
}

// TestLeasePollWakesOnWork runs workers whose PollInterval is an hour:
// only the held poll's wake-up can deliver shards to them. A
// distributed Table II campaign must finish inside one hold window
// and match flat execution.
func TestLeasePollWakesOnWork(t *testing.T) {
	plan, newExec, spec := tableIICampaign(t, apps.TableIIScenarios()[0])
	flat := weberr.ReportOutcomes(newExec().Execute(context.Background(), plan))

	pool := NewPool(PoolOptions{Logf: t.Logf})
	hold := pool.holdWindow()
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(srv.Close)
	startWorkersPolling(t, srv.URL, 2, time.Hour)
	wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.WaitForWorkers(wctx, 2); err != nil {
		t.Fatal(err)
	}
	waitParked(t, pool, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	outs, ok := pool.DistributeCampaign(ctx, newExec(), plan, spec)
	elapsed := time.Since(start)
	if !ok {
		t.Fatal("campaign was not distributed")
	}
	t.Logf("distributed campaign took %v (hold window %v)", elapsed, hold)
	if elapsed >= hold {
		t.Errorf("campaign took %v, not under the %v hold window: shards waited on a timer", elapsed, hold)
	}
	assertFindingsEqual(t, "hour-poll workers", flat, weberr.ReportOutcomes(outs))
}

// TestRequeueWakesParkedSurvivor reaps a dead worker's lease while the
// survivor's poll is parked: the re-queued shard must reach the
// survivor at once, not when its hold window ends.
func TestRequeueWakesParkedSurvivor(t *testing.T) {
	pool := NewPool(PoolOptions{Logf: t.Logf})
	hold := pool.holdWindow()
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(srv.Close)

	run := installLoadRun(pool)
	pool.touch("doomed")
	if l, _ := pool.grant("doomed"); l.Status != StatusLease {
		t.Fatalf("doomed worker got %q, want a lease", l.Status)
	}

	got := make(chan WireLease, 1)
	go func() {
		l, err := pollLease(context.Background(), srv.URL, "survivor")
		if err != nil {
			t.Error(err)
		}
		got <- l
	}()
	waitParked(t, pool, 1)

	pool.mu.Lock()
	pool.workers["doomed"] = time.Now().Add(-2 * pool.opts.LeaseTTL)
	pool.mu.Unlock()
	start := time.Now()
	if !pool.reap(run) {
		t.Fatal("reap declared the fleet dead with the survivor parked")
	}
	l := <-got
	if elapsed := time.Since(start); elapsed >= hold/2 {
		t.Errorf("survivor got the re-queued shard after %v; the hold window is %v", elapsed, hold)
	}
	if l.Status != StatusLease || l.Token != "run-1/0" {
		t.Errorf("survivor got %q (token %q), want the re-queued shard run-1/0", l.Status, l.Token)
	}
}

// TestHeldPollReturns pins the two ways a held poll ends without work:
// the client goes away, or the hold window passes.
func TestHeldPollReturns(t *testing.T) {
	t.Run("client cancels", func(t *testing.T) {
		pool := NewPool(PoolOptions{})
		srv := httptest.NewServer(pool.Handler())
		t.Cleanup(srv.Close)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := pollLease(ctx, srv.URL, "w1")
			done <- err
		}()
		waitParked(t, pool, 1)
		start := time.Now()
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled poll returned %v", err)
		}
		waitParked(t, pool, 0)
		if elapsed, hold := time.Since(start), pool.holdWindow(); elapsed >= hold/2 {
			t.Errorf("server released the cancelled poll after %v; the hold window is %v", elapsed, hold)
		}
	})
	t.Run("hold window expires", func(t *testing.T) {
		if got := NewPool(PoolOptions{LeaseTTL: time.Minute}).holdWindow(); got != maxHold {
			t.Errorf("hold window at a 1m lease TTL = %v, want the %v cap", got, maxHold)
		}
		pool := NewPool(PoolOptions{LeaseTTL: 500 * time.Millisecond})
		hold := pool.holdWindow()
		srv := httptest.NewServer(pool.Handler())
		t.Cleanup(srv.Close)
		start := time.Now()
		l, err := pollLease(context.Background(), srv.URL, "w1")
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if l.Status != StatusIdle {
			t.Errorf("expired poll answered %q, want %q", l.Status, StatusIdle)
		}
		if elapsed < hold || elapsed > hold+time.Second {
			t.Errorf("poll held %v, want about the %v hold window", elapsed, hold)
		}
		if n := pool.parkedPolls.Load(); n != 0 {
			t.Errorf("%d polls still parked after the reply", n)
		}
	})
}

// TestShutdownWithParkedPolls checks that http.Server.Shutdown, which
// waits for in-flight requests, is held up by parked polls for no
// more than one hold window.
func TestShutdownWithParkedPolls(t *testing.T) {
	pool := NewPool(PoolOptions{LeaseTTL: 2 * time.Second})
	hold := pool.holdWindow()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: pool.Handler()}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l, err := pollLease(context.Background(), base, id); err != nil || l.Status != StatusIdle {
				t.Errorf("%s: parked poll ended with %q, %v", id, l.Status, err)
			}
		}()
	}
	waitParked(t, pool, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Shutdown re-checks for idle connections at a growing interval
	// capped at 500ms; that is the slack.
	if elapsed := time.Since(start); elapsed > hold+time.Second {
		t.Errorf("shutdown took %v with parked polls; the hold window is %v", elapsed, hold)
	}
	wg.Wait()
}

// TestPollForfeitsLostGrant: a worker that polls while the pool still
// counts a lease as its own never received that grant (the reply was
// dropped or corrupted in flight). The poll must re-queue the shard
// and grant it afresh rather than leave it held by a live worker.
func TestPollForfeitsLostGrant(t *testing.T) {
	pool := NewPool(PoolOptions{Logf: t.Logf})
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(srv.Close)
	run := installLoadRun(pool)
	pool.touch("w1")
	lost, _ := pool.grant("w1")
	if lost.Status != StatusLease {
		t.Fatalf("first grant: %q", lost.Status)
	}
	l, err := pollLease(context.Background(), srv.URL, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if l.Status != StatusLease || l.Token != lost.Token || l.ID == lost.ID {
		t.Errorf("re-poll got %q lease %s token %s; want shard %s under a new lease", l.Status, l.ID, l.Token, lost.Token)
	}
	pool.mu.Lock()
	_, held := run.leases[lost.ID]
	pool.mu.Unlock()
	if held {
		t.Errorf("lost lease %s still held", lost.ID)
	}
}

// TestLeaseReplyChecksum: a grant corrupted in flight can still decode
// as JSON with a garbled trace; the seal must reject it.
func TestLeaseReplyChecksum(t *testing.T) {
	l := WireLease{
		Status: StatusLease, ID: "lease-1", Campaign: "navigation", Token: "run-1/0",
		Jobs: []WireJob{{Trace: command.Trace{StartURL: "http://sites.test/", Commands: []command.Command{
			{Action: command.Click, XPath: `//div[@id="edit"]`},
			{Action: command.Type, XPath: `//textarea[@name="body"]`, Key: "H", Code: 72},
		}}}},
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	var clean WireLease
	if err := json.Unmarshal(b, &clean); err != nil || !clean.Verify() {
		t.Fatalf("intact sealed lease rejected: %v", err)
	}
	var bad WireLease
	if err := json.Unmarshal(faults.CorruptBody(b), &bad); err != nil {
		t.Fatalf("the flipped byte no longer lands inside a JSON value: %v", err)
	}
	if bad.Verify() {
		t.Errorf("corrupted lease passed verification: %+v", bad)
	}
}

// TestSealMatchesHashFNV pins the completion checksum to hash/fnv's
// FNV-1a over the same bytes, so reports sealed by workers built
// before the switch to internal/fnv1a still verify.
func TestSealMatchesHashFNV(t *testing.T) {
	msg := CompleteMsg{
		Worker: "w1", Lease: "lease-7", Token: "run-3/2", Retries: 2,
		Outcomes: []jobs.OutcomeEvent{{Type: "outcome", Index: 0, Status: "replayed", Played: 5}},
	}
	b, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	if err := msg.Seal(); err != nil {
		t.Fatal(err)
	}
	if msg.Sum != h.Sum64() {
		t.Errorf("Seal sum %#x, hash/fnv gives %#x", msg.Sum, h.Sum64())
	}
	const pinned = 0xb7940120fb9a4d3c
	if msg.Sum != pinned {
		t.Errorf("Seal sum %#x, pinned %#x", msg.Sum, uint64(pinned))
	}
	if !msg.Verify() {
		t.Error("sealed message failed verification")
	}
}

// TestRunImagesDropped runs 20 campaigns over the Table II scenarios:
// afterwards the pool's store holds no image, and once the workers'
// held polls come back idle their caches are empty too.
func TestRunImagesDropped(t *testing.T) {
	type campaignCase struct {
		plan    []campaign.Job
		newExec func() *campaign.Executor
		spec    jobs.DistSpec
	}
	var cases []campaignCase
	for _, sc := range apps.TableIIScenarios() {
		plan, newExec, spec := tableIICampaign(t, sc)
		cases = append(cases, campaignCase{plan, newExec, spec})
	}

	pool := NewPool(PoolOptions{LeaseTTL: time.Second, Logf: t.Logf})
	hold := pool.holdWindow()
	srv := httptest.NewServer(pool.Handler())
	t.Cleanup(srv.Close)
	workers, stop := startWorkersPolling(t, srv.URL, 2, 2*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		c := cases[i%len(cases)]
		if _, ok := pool.DistributeCampaign(context.Background(), c.newExec(), c.plan, c.spec); !ok {
			t.Fatalf("campaign %d was not distributed", i)
		}
	}
	if n := pool.Store().Len(); n != 0 {
		t.Errorf("store holds %d images after every run ended", n)
	}
	pool.mu.Lock()
	owners := len(pool.imageOwner)
	pool.mu.Unlock()
	if owners != 0 {
		t.Errorf("pool tracks %d image owners after every run ended", owners)
	}
	if got := poolMetric(t, pool, "warr_distrib_images_shipped_total"); got == "0" {
		t.Fatal("no image was shipped; the retention check is vacuous")
	}

	// Every worker's next held poll comes back idle after one hold
	// window.
	time.Sleep(5 * hold)
	stop()
	for _, w := range workers {
		if n := len(w.cache) + len(w.prevCache); n != 0 {
			t.Errorf("%s still caches %d images with no run in flight", w.ID(), n)
		}
	}
}

// TestWorkerImageCacheSpansTwoRuns pins the worker cache's bound: the
// current run's images, plus the previous run's until this run reuses
// them or the next run starts.
func TestWorkerImageCacheSpansTwoRuns(t *testing.T) {
	w := NewWorker(WorkerOptions{Coordinator: "http://127.0.0.1:1"})
	a, b := &image.Image{}, &image.Image{}
	w.startRun("run-1/0")
	w.cache["a"], w.cache["b"] = a, b

	w.startRun("run-2/3")
	if got, err := w.fetchImage(context.Background(), "a"); err != nil || got != a {
		t.Fatalf("run 2 did not reuse run 1's image: %v", err)
	}
	if len(w.cache) != 1 || len(w.prevCache) != 1 {
		t.Fatalf("after reuse: cache %d, previous %d; want 1 and 1", len(w.cache), len(w.prevCache))
	}

	w.startRun("run-3/0")
	if _, ok := w.prevCache["b"]; ok {
		t.Error("run 1's unused image survived into run 3")
	}
	if w.prevCache["a"] != a || len(w.cache) != 0 {
		t.Errorf("run 3: cache %d, previous %v; want run 2's image a as previous", len(w.cache), w.prevCache)
	}
	w.startRun("run-3/1")
	if w.prevCache["a"] != a {
		t.Error("a second lease of the same run rotated the cache")
	}

	w.forgetImages()
	if len(w.cache)+len(w.prevCache) != 0 {
		t.Error("an idle reply left images cached")
	}
}

// TestImageGoneSkipsRetries: a 404 from GET /image/ means the run that
// captured the image is over, so the worker goes straight to the flat
// fallback instead of spending its retry budget.
func TestImageGoneSkipsRetries(t *testing.T) {
	pool := NewPool(PoolOptions{})
	var fetches atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/image/") {
			fetches.Add(1)
		}
		pool.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	w := NewWorker(WorkerOptions{Coordinator: srv.URL, RetryBase: time.Second})
	_, err := w.fetchImage(context.Background(), "sha256-gone")
	if !errors.Is(err, errImageGone) {
		t.Errorf("fetching a dropped image: %v, want errImageGone", err)
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("%d image requests, want 1", n)
	}
	if n := w.retries.Load(); n != 0 {
		t.Errorf("%d retries spent on a dropped image", n)
	}
}
