package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// fullTraceJob is a shard job in the encoding leases used before the
// command dictionary: the whole trace, under the "jobs" key.
type fullTraceJob struct {
	Pacing replayer.Pacing `json:"pacing,omitempty"`
	Trace  command.Trace   `json:"trace"`
}

// grantAll runs plan through a pool with n connected (phantom)
// workers and grants every shard to one of them by hand, until the
// campaign merges. Each sealed lease reply goes to fn with its shard's
// planned job indices; fn returns the outcomes to report.
func grantAll(t *testing.T, exec *campaign.Executor, plan []campaign.Job, n int,
	fn func(body []byte, jobIdx []int) []jobs.OutcomeEvent) {
	t.Helper()
	pool := NewPool(PoolOptions{Logf: t.Logf})
	for i := 0; i < n; i++ {
		pool.touch(fmt.Sprintf("w%d", i))
	}
	// The pool's own shard plan: planning is deterministic, so shard si
	// of this plan is shard si of every grant.
	sp, ok := exec.PlanShards(context.Background(), plan, (len(plan)+4*n-1)/(4*n))
	if !ok {
		t.Fatal("the plan refused sharding")
	}
	okCh := make(chan bool, 1)
	go func() {
		_, ok := pool.DistributeCampaign(context.Background(), exec, plan, jobs.DistSpec{Campaign: "navigation"})
		okCh <- ok
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case ok := <-okCh:
			if !ok {
				t.Fatal("campaign aborted to local execution")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never converged")
		}
		l, _ := pool.grant("w0")
		if l.Status != StatusLease {
			time.Sleep(time.Millisecond)
			continue
		}
		_, si, _ := parseToken(l.Token)
		jobIdx := sp.Shards[si].Jobs
		body, err := seal(l)
		if err != nil {
			t.Fatal(err)
		}
		pool.complete(CompleteMsg{Worker: "w0", Lease: l.ID, Token: l.Token, Outcomes: fn(body, jobIdx)})
	}
}

// skipped is one skipped outcome per job, the report of a worker that
// ran nothing.
func skipped(n int) []jobs.OutcomeEvent {
	evs := make([]jobs.OutcomeEvent, n)
	for i := range evs {
		evs[i] = encodeOutcome(i, campaign.Outcome{Skipped: true})
	}
	return evs
}

// TestLeaseDictionaryRoundTrip: for every Table II navigation plan at
// the pool's shard sizes for one to three workers, the jobs a worker
// expands from each sealed grant deep-equal the planned ones, and the
// dictionary holds each command once. Compose-email, the longest
// trace, must ship at most a tenth of the full-trace bytes.
func TestLeaseDictionaryRoundTrip(t *testing.T) {
	for _, sc := range apps.TableIIScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			_, g := scenarioGrammar(t, sc)
			copts := weberr.CampaignOptions{Replayer: replayer.Options{Pacing: replayer.PaceNone}}
			plan := weberr.NavigationPlan(g, copts)
			exec := weberr.NavigationExecutor(apps.BrowserFactory(browser.DeveloperMode), copts)
			for workers := 1; workers <= 3; workers++ {
				var leaseBytes, fullBytes, shards int
				grantAll(t, exec, plan, workers, func(body []byte, jobIdx []int) []jobs.OutcomeEvent {
					shards++
					l, cjobs, err := decodeLease(body)
					if err != nil {
						t.Fatalf("workers=%d: decoding a grant: %v", workers, err)
					}
					seen := make(map[wireCommand]bool, len(l.Commands))
					for _, c := range l.Commands {
						if seen[c] {
							t.Errorf("workers=%d: dictionary holds %v twice", workers, c)
						}
						seen[c] = true
					}
					if len(cjobs) != len(jobIdx) {
						t.Fatalf("workers=%d: expanded %d jobs, shard has %d", workers, len(cjobs), len(jobIdx))
					}
					full := make([]fullTraceJob, len(jobIdx))
					for i, ji := range jobIdx {
						want := campaign.Job{Trace: plan[ji].Trace, Pacing: plan[ji].Pacing}
						if !reflect.DeepEqual(cjobs[i], want) {
							t.Errorf("workers=%d: shard job %d (plan job %d) expanded to\n%+v\nwant\n%+v", workers, i, ji, cjobs[i], want)
						}
						full[i] = fullTraceJob{Pacing: want.Pacing, Trace: want.Trace}
					}
					fb, err := json.Marshal(full)
					if err != nil {
						t.Fatal(err)
					}
					leaseBytes += len(body)
					fullBytes += len(fb)
					return skipped(len(jobIdx))
				})
				t.Logf("workers=%d: %d shards, lease bytes %d, full-trace jobs %d (%.1fx)",
					workers, shards, leaseBytes, fullBytes, float64(fullBytes)/float64(max(leaseBytes, 1)))
				if sc.Name == apps.ComposeEmailScenario().Name && leaseBytes*10 > fullBytes {
					t.Errorf("workers=%d: leases total %d bytes, more than a tenth of the %d-byte full-trace encoding",
						workers, leaseBytes, fullBytes)
				}
			}
		})
	}
}

// TestOlderWorkerReportRejected: a worker built before the command
// dictionary reads jobs under the old key, finds none, and reports zero
// outcomes. The coordinator must reject that report and re-queue the
// shard, never merge it; an up-to-date worker then finishes the
// campaign with the verdicts of flat execution.
func TestOlderWorkerReportRejected(t *testing.T) {
	sc := apps.TableIIScenarios()[0]
	_, g := scenarioGrammar(t, sc)
	copts := weberr.CampaignOptions{Replayer: replayer.Options{Pacing: replayer.PaceNone}}
	plan := weberr.NavigationPlan(g, copts)
	exec := weberr.NavigationExecutor(apps.BrowserFactory(browser.DeveloperMode), copts)
	flat := exec.Execute(context.Background(), plan)

	pool := NewPool(PoolOptions{Logf: t.Logf})
	srv := httptest.NewServer(pool.Handler())
	defer srv.Close()
	pool.touch("old")
	spec := jobs.DistSpec{Campaign: "navigation", Replayer: copts.Replayer}

	type result struct {
		outs []campaign.Outcome
		ok   bool
	}
	resCh := make(chan result, 1)
	go func() {
		outs, ok := pool.DistributeCampaign(context.Background(), exec, plan, spec)
		resCh <- result{outs, ok}
	}()

	l, err := pollLease(context.Background(), srv.URL, "old")
	for err == nil && l.Status != StatusLease {
		l, err = pollLease(context.Background(), srv.URL, "old")
	}
	if err != nil {
		t.Fatal(err)
	}
	_, si, _ := parseToken(l.Token)
	raw, err := seal(l)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		ID    string         `json:"id"`
		Token string         `json:"token"`
		Jobs  []fullTraceJob `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	if len(old.Jobs) != 0 {
		t.Fatalf("an older worker decoded %d jobs from a dictionary lease, want 0", len(old.Jobs))
	}
	report, err := seal(CompleteMsg{Worker: "old", Lease: old.ID, Token: old.Token})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/complete", "application/json", bytes.NewReader(report))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pool.mu.Lock()
	merged, queued := pool.run.completed[si], slices.Contains(pool.run.queue, si)
	pool.mu.Unlock()
	if merged || !queued {
		t.Fatalf("zero-outcome report of shard %d: merged=%v re-queued=%v, want rejected and re-queued", si, merged, queued)
	}

	startWorkers(t, srv.URL, 1)
	var res result
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never converged")
	}
	if !res.ok || len(res.outs) != len(plan) {
		t.Fatalf("campaign ok=%v with %d outcomes, want %d", res.ok, len(res.outs), len(plan))
	}
	for i, out := range res.outs {
		if out.Skipped || (out.Verdict != nil) != (flat[i].Verdict != nil) {
			t.Errorf("job %d: skipped=%v verdict=%v, flat verdict=%v", i, out.Skipped, out.Verdict, flat[i].Verdict)
		}
	}
}

// FuzzLeaseDecode: decoding and expanding arbitrary lease bytes never
// panics. A lease that decodes expands every ref, and re-sealing it
// decodes to the same jobs.
func FuzzLeaseDecode(f *testing.F) {
	l := WireLease{
		Status: StatusLease, ID: "lease-1", DistSpec: jobs.DistSpec{Campaign: "navigation"}, Token: "run-1/0", Depth: 1,
		Commands: []wireCommand{
			{Action: command.Click, XPath: `//div[@id="edit"]`, X: 3, Y: 4},
			{Action: command.Type, XPath: `//textarea[@name="body"]`, Key: "H", Code: 72},
		},
		Jobs: []WireJob{
			{StartURL: "http://sites.test/", Refs: []int32{0, 1, 1}},
			{Pacing: replayer.PaceNone, StartURL: "http://sites.test/", Refs: []int32{1, 0}},
		},
	}
	sealed, err := seal(l)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add([]byte(`{"status":"lease","commands":[{"a":1,"p":"//a"}],"dictJobs":[{"refs":[0,1]}]}`))
	f.Add([]byte(`{"status":"lease","dictJobs":[{"refs":[-1]}]}`))
	f.Add([]byte(`{"status":"lease","dictJobs":[{"refs":null}],"sum":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		l, cjobs, err := decodeLease(body)
		if err != nil {
			return
		}
		if len(cjobs) != len(l.Jobs) {
			t.Fatalf("expanded %d jobs from %d", len(cjobs), len(l.Jobs))
		}
		for i, j := range cjobs {
			if len(j.Trace.Commands) != len(l.Jobs[i].Refs) {
				t.Fatalf("job %d: %d commands from %d refs", i, len(j.Trace.Commands), len(l.Jobs[i].Refs))
			}
		}
		l.Sum = 0
		again, err := seal(*l)
		if err != nil {
			t.Fatalf("re-sealing a decoded lease: %v", err)
		}
		_, cjobs2, err := decodeLease(again)
		if err != nil {
			t.Fatalf("re-sealed lease rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(cjobs, cjobs2) {
			t.Fatalf("re-sealed lease expanded to different jobs")
		}
	})
}
