package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/faults"
	"github.com/dslab-epfl/warr/internal/fnv1a"
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
		n: 1,
		fill: func(l *WireLease, i int) {
			l.Campaign, l.LoadJobs = "load", []multiuser.ScheduleJob{{Index: 0}}
		},
		merge:     func(CompleteMsg, int) error { return nil },
		cancel:    func([]bool) bool { return false },
		token:     "run-1",
		queue:     []int{0},
		leases:    make(map[string]*lease),
		completed: make([]bool, 1),
		remaining: 1,
		done:      make(chan struct{}),
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
// as JSON with a garbled dictionary; the seal must reject it. A grant
// sealed by an older coordinator, whose leases also carried a
// branch-point image digest, must still verify.
func TestLeaseReplyChecksum(t *testing.T) {
	l := WireLease{
		Status: StatusLease, ID: "lease-1", Token: "run-1/0", Depth: 1,
		DistSpec: jobs.DistSpec{Campaign: "navigation", Parallelism: 2},
		// The long XPath keeps the body's middle byte, the one
		// faults.CorruptBody flips, inside a JSON string.
		Commands: []wireCommand{
			{Action: command.Click, XPath: `//div[@id="edit"]`},
			{Action: command.Type, XPath: `/html/body/div[@class="editor"]/form/table/tbody/tr/td/div[@class="field"]/textarea[@name="body"]`, Key: "H", Code: 72},
		},
		Jobs: []WireJob{{StartURL: "http://sites.test/", Refs: []int32{0, 1}}},
	}
	b, err := seal(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeLease(append(b, '\n')); err != nil {
		t.Fatalf("intact sealed lease rejected: %v", err)
	}
	bad := faults.CorruptBody(append([]byte(nil), b...))
	var garbled WireLease
	if err := json.Unmarshal(bad, &garbled); err != nil {
		t.Fatalf("the flipped byte no longer lands inside a JSON value: %v", err)
	}
	if _, _, err := decodeLease(bad); err == nil {
		t.Errorf("corrupted lease passed verification: %+v", garbled)
	}

	// An older coordinator's grant: the image field sat between
	// parallelism and depth, and the seal covers it.
	unsealed, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(unsealed), `"parallelism":2,`, `"parallelism":2,"image":"sha256-0123",`, 1)
	if old == string(unsealed) {
		t.Fatal("lease encoding has no parallelism field to splice after")
	}
	sum := fnv1a.Bytes([]byte(old))
	old = strings.TrimSuffix(old, "}") + fmt.Sprintf(`,"sum":%d}`, sum)
	got, cjobs, err := decodeLease([]byte(old + "\n"))
	if err != nil {
		t.Fatalf("an older coordinator's sealed grant was rejected: %v", err)
	}
	if got.Depth != 1 || len(cjobs) != 1 || len(cjobs[0].Trace.Commands) != 2 {
		t.Errorf("older grant decoded as %+v", got)
	}
}

// TestSealMatchesHashFNV pins the seal's checksum to hash/fnv's FNV-1a
// over the message's encoding with Sum zero, so reports sealed by
// workers built before the switch to internal/fnv1a — or sealed field
// by field, before seal spliced the sum into one encoding — still
// verify.
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
	sealed, err := seal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var got CompleteMsg
	if err := json.Unmarshal(sealed, &got); err != nil {
		t.Fatal(err)
	}
	if got.Sum != h.Sum64() {
		t.Errorf("seal sum %#x, hash/fnv gives %#x", got.Sum, h.Sum64())
	}
	const pinned = 0xb7940120fb9a4d3c
	if got.Sum != pinned {
		t.Errorf("seal sum %#x, pinned %#x", got.Sum, uint64(pinned))
	}
	// The spliced bytes are exactly the message re-encoded with its sum.
	if again, _ := json.Marshal(got); string(again) != string(sealed) {
		t.Errorf("sealed bytes\n%s\ndiffer from the struct encoding\n%s", sealed, again)
	}
	if !verifySealed(sealed, got.Sum) {
		t.Error("sealed message failed verification")
	}
}
