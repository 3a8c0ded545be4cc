package distrib

import (
	"context"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// grantTo polls the pool as worker until it grants a lease, and runs
// the lease through a sealed round trip the way a worker receives it.
func grantTo(t *testing.T, pool *Pool, worker string) (*WireLease, []campaign.Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if l, _ := pool.grant(worker); l.Status == StatusLease {
			body, err := seal(l)
			if err != nil {
				t.Fatal(err)
			}
			wl, cjobs, err := decodeLease(body)
			if err != nil {
				t.Fatal(err)
			}
			return wl, cjobs
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("the pool granted %s no lease", worker)
	return nil, nil
}

// TestDistributedCampaignCancelSkipsUnmergedShards cancels a
// navigation campaign on two workers once the first shard merged: every
// job of a shard not merged by then — queued, or leased and never
// reported — comes back skipped, the merged shard keeps its outcomes,
// and every finding is one flat execution also reports.
func TestDistributedCampaignCancelSkipsUnmergedShards(t *testing.T) {
	_, g := scenarioGrammar(t, apps.TableIIScenarios()[0])
	copts := weberr.CampaignOptions{Replayer: replayer.Options{Pacing: replayer.PaceNone}}
	plan := weberr.NavigationPlan(g, copts)
	exec := weberr.NavigationExecutor(apps.BrowserFactory(browser.DeveloperMode), copts)
	flat := exec.Execute(context.Background(), plan)

	pool := NewPool(PoolOptions{Logf: t.Logf})
	pool.touch("w0")
	pool.touch("w1")
	// The pool's own shard plan for two workers (planning is
	// deterministic).
	sp, ok := exec.PlanShards(context.Background(), plan, (len(plan)+7)/8)
	if !ok || len(sp.Shards) < 3 {
		t.Fatalf("plan sharded ok=%v into %d shards, want at least 3", ok, len(sp.Shards))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		outs []campaign.Outcome
		ok   bool
	}
	resCh := make(chan result, 1)
	go func() {
		outs, ok := pool.DistributeCampaign(ctx, exec, plan, jobs.DistSpec{Campaign: "navigation", Replayer: copts.Replayer})
		resCh <- result{outs, ok}
	}()

	l0, cjobs := grantTo(t, pool, "w0")
	grantTo(t, pool, "w1") // leased, never reported
	w := NewWorker(WorkerOptions{ID: "w0"})
	pool.complete(w.execute(context.Background(), l0, cjobs))
	cancel()
	res := <-resCh
	if !res.ok || len(res.outs) != len(plan) {
		t.Fatalf("cancelled campaign ok=%v with %d outcomes, want ok with %d", res.ok, len(res.outs), len(plan))
	}
	_, merged, _ := parseToken(l0.Token)
	for si, sh := range sp.Shards {
		for _, ji := range sh.Jobs {
			if skipped := res.outs[ji].Skipped; skipped != (si != merged) {
				t.Errorf("shard %d job %d: skipped=%v, want %v (merged shard %d)", si, ji, skipped, si != merged, merged)
			}
		}
	}
	for i, out := range res.outs {
		if out.Verdict == nil {
			continue
		}
		if flat[i].Verdict == nil || flat[i].Verdict.Error() != out.Verdict.Error() {
			t.Errorf("job %d: finding %q is not the flat run's (%v)", i, out.Verdict, flat[i].Verdict)
		}
	}
	if got := poolMetric(t, pool, "warr_distrib_campaigns_total"); got != "1" {
		t.Errorf("campaigns total = %s, want 1", got)
	}
}

// TestDistributedLoadCancelFallsBackLocal cancels a distributed load
// campaign once its first shard merged. A load run has no skipped
// result, so the pool hands it back to local execution, and the job
// reports the cancellation.
func TestDistributedLoadCancelFallsBackLocal(t *testing.T) {
	pool := NewPool(PoolOptions{Logf: t.Logf})
	pool.touch("w0")
	pool.touch("w1")
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 2, Distributor: pool})
	defer engine.Close()
	job, err := engine.Submit(jobs.Spec{Kind: jobs.KindLoadCampaign, Workload: "sites-notes",
		Users: 6, Cohort: 3, ScheduleBudget: 4, ScheduleSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	l0, cjobs := grantTo(t, pool, "w0")
	if l0.Campaign != "load" || len(l0.LoadJobs) == 0 {
		t.Fatalf("first grant is campaign %q with %d load jobs, want a load shard", l0.Campaign, len(l0.LoadJobs))
	}
	w := NewWorker(WorkerOptions{ID: "w0"})
	pool.complete(w.execute(context.Background(), l0, cjobs))
	pool.mu.Lock()
	remaining := pool.run.remaining
	pool.mu.Unlock()
	if remaining == 0 {
		t.Fatal("the load run has a single shard; the test needs one left unmerged")
	}
	if err := engine.Cancel(job.ID, nil); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(nil); err != nil {
		t.Fatal(err)
	}
	// The local path returns the context's error; the job still ends
	// cancelled, so it can resume.
	if job.State() != jobs.StateCancelled || job.Err() != nil || job.LoadReport() != nil {
		t.Errorf("cancelled load job ended %s with error %v and report %v, want cancelled with no error and no report",
			job.State(), job.Err(), job.LoadReport())
	}
	pool.mu.Lock()
	idle := pool.run == nil
	pool.mu.Unlock()
	if !idle {
		t.Error("the pool still holds the cancelled run")
	}
	if got := poolMetric(t, pool, "warr_distrib_load_campaigns_total"); got != "1" {
		t.Errorf("load campaigns total = %s, want 1", got)
	}
}
