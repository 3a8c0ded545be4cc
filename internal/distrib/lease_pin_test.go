package distrib

import (
	"context"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// sealFirstGrant starts a run on a pool with one phantom worker, seals
// the first lease the pool grants, and cancels the run.
func sealFirstGrant(t *testing.T, start func(ctx context.Context, pool *Pool)) string {
	t.Helper()
	pool := NewPool(PoolOptions{ShardFactor: 1, Logf: t.Logf})
	pool.touch("w0")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		start(ctx, pool)
	}()
	defer func() {
		cancel()
		<-done
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if l, _ := pool.grant("w0"); l.Status == StatusLease {
			body, err := seal(l)
			if err != nil {
				t.Fatal(err)
			}
			return string(body)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the pool granted no lease")
	return ""
}

// TestSealedLeaseBytes pins the sealed bytes of a navigation lease (one
// two-job shard, no pacing, relaxation off) and of a load lease: a
// worker of one build must read the leases of every other.
func TestSealedLeaseBytes(t *testing.T) {
	click := command.Command{Action: command.Click, XPath: `//div/span[@id="start"]`, X: 3, Y: 4, Elapsed: 120}
	plan := []campaign.Job{
		{Trace: command.Trace{StartURL: "http://sites.test/", Commands: []command.Command{click,
			{Action: command.Type, XPath: `//textarea[@name="body"]`, Key: "H", Code: 72, Elapsed: 80}}}},
		{Trace: command.Trace{StartURL: "http://sites.test/", Commands: []command.Command{click,
			{Action: command.Type, XPath: `//textarea[@name="body"]`, Key: "I", Code: 73}}}},
	}
	spec := jobs.DistSpec{Campaign: "navigation", Mode: browser.DeveloperMode, Parallelism: 2,
		Replayer: replayer.Options{Pacing: replayer.PaceNone, DisableRelaxation: true}}
	copts := weberr.CampaignOptions{Replayer: spec.Replayer, Parallelism: spec.Parallelism}
	exec := weberr.NavigationExecutor(apps.BrowserFactory(browser.DeveloperMode), copts)
	nav := sealFirstGrant(t, func(ctx context.Context, pool *Pool) {
		pool.DistributeCampaign(ctx, exec, plan, spec)
	})
	const wantNav = `{"status":"lease","id":"lease-1","campaign":"navigation","mode":2,"replayer":{"pacing":2,"disableRelaxation":true,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}},"parallelism":2,"commands":[{"a":1,"p":"//div/span[@id=\"start\"]","x":3,"y":4,"e":120},{"a":4,"p":"//textarea[@name=\"body\"]","k":"H","c":72,"e":80},{"a":4,"p":"//textarea[@name=\"body\"]","k":"I","c":73}],"dictJobs":[{"start":"http://sites.test/","refs":[0,1]},{"start":"http://sites.test/","refs":[0,2]}],"ttlMillis":10000,"token":"run-1/0","sum":11422956675404526064}`
	if nav != wantNav {
		t.Errorf("navigation lease:\n got %#q\nwant %#q", nav, wantNav)
	}

	sjobs := []multiuser.ScheduleJob{
		{Index: 0, Workload: "sites-notes", Users: 2, Schedule: "users:2;slots:0,1,0,1", Mode: browser.DeveloperMode, GapNanos: 1e9},
		{Index: 3, Workload: "sites-notes", Users: 2, Schedule: "users:2;slots:0,0,1,1", Mode: browser.DeveloperMode, GapNanos: 1e9},
	}
	load := sealFirstGrant(t, func(ctx context.Context, pool *Pool) {
		pool.DistributeLoad(ctx, sjobs, jobs.DistSpec{Campaign: "load"})
	})
	const wantLoad = `{"status":"lease","id":"lease-1","campaign":"load","replayer":{"pacing":0,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}},"ttlMillis":10000,"token":"run-1/0","loadJobs":[{"index":0,"workload":"sites-notes","users":2,"schedule":"users:2;slots:0,1,0,1","mode":2,"gapNanos":1000000000},{"index":3,"workload":"sites-notes","users":2,"schedule":"users:2;slots:0,0,1,1","mode":2,"gapNanos":1000000000}],"sum":229041902634406875}`
	if load != wantLoad {
		t.Errorf("load lease:\n got %#q\nwant %#q", load, wantLoad)
	}
}
