package jobs

// Resume is re-run: a cancelled job resumes as a new job running the
// same spec, so for every kind and wherever the cut lands the resumed
// job's event stream must be byte-identical to an uninterrupted job's,
// while the cancelled original keeps its state and partial result.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// cutTrigger counts the times a job reaches its cut point and cancels
// the job at the k-th, once: the counter keeps climbing through the
// resumed re-run, so the trigger never fires twice. With k == 0 it
// only counts.
type cutTrigger struct {
	k    int64
	hits atomic.Int64
	e    *Engine
	mu   sync.Mutex
	job  *Job
}

func (c *cutTrigger) hit() {
	if c.hits.Add(1) != c.k {
		return
	}
	c.mu.Lock()
	id := c.job.ID
	c.mu.Unlock()
	_ = c.e.Cancel(id, nil)
}

// submit submits spec with the trigger armed on the job it returns.
func (c *cutTrigger) submit(t *testing.T, spec Spec) *Job {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	job, err := c.e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.job = job
	return job
}

// triggerOracle judges like the default oracle and counts each judged
// trace as a cut point.
func triggerOracle(c *cutTrigger) weberr.Oracle {
	return func(tab *browser.Tab, res *replayer.Result) error {
		c.hit()
		return weberr.ConsoleOracle(tab, res)
	}
}

// offerTrigger is a LoadDistributor that refuses every load offer and
// counts each as a cut point.
type offerTrigger struct {
	Distributor
	c *cutTrigger
}

func (d offerTrigger) DistributeLoad(context.Context, []multiuser.ScheduleJob, DistSpec) ([]multiuser.ScheduleResult, bool) {
	d.c.hit()
	return nil, false
}

func TestResumedStreamMatchesUninterrupted(t *testing.T) {
	auth := recordScenario(t, apps.AuthenticateScenario())
	edit := recordScenario(t, apps.EditSiteScenario())
	cases := []struct {
		name string
		// arm returns the case's spec and engine options with c's cut
		// point wired in.
		arm func(c *cutTrigger) (Spec, Options)
	}{
		{"replay", func(c *cutTrigger) (Spec, Options) {
			return Spec{Kind: KindReplay, Trace: auth, Replayer: replayer.Options{
				Hooks: []replayer.Hooks{{AfterStep: func(replayer.Step, *browser.Tab) { c.hit() }}},
			}}, Options{}
		}},
		{"navigation", func(c *cutTrigger) (Spec, Options) {
			return Spec{Kind: KindNavigationCampaign, Trace: edit, Oracle: triggerOracle(c)}, Options{}
		}},
		{"timing", func(c *cutTrigger) (Spec, Options) {
			return Spec{Kind: KindTimingCampaign, Trace: edit, Oracle: triggerOracle(c)}, Options{}
		}},
		{"fuzz", func(c *cutTrigger) (Spec, Options) {
			return Spec{Kind: KindFuzzCampaign, Trace: auth, FuzzBudget: 8, FuzzSeed: 3, Oracle: triggerOracle(c)}, Options{}
		}},
		{"load", func(c *cutTrigger) (Spec, Options) {
			return Spec{Kind: KindLoadCampaign, Workload: "sites-notes", Users: 8, Cohort: 2, ScheduleBudget: 4, ScheduleSeed: 1},
				Options{Distributor: offerTrigger{c: c}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// run submits the case with the trigger armed at k on a fresh
			// engine and waits for the job.
			run := func(k int64) (*cutTrigger, *Job) {
				c := &cutTrigger{k: k}
				spec, opts := tc.arm(c)
				opts.Workers, opts.QueueDepth = 1, 2
				c.e = New(opts)
				t.Cleanup(c.e.Close)
				job := c.submit(t, spec)
				waitJob(t, job)
				return c, job
			}
			ref, refJob := run(0)
			if refJob.State() != StateDone {
				t.Fatalf("uninterrupted job ended %s (err %v)", refJob.State(), refJob.Err())
			}
			points := ref.hits.Load()
			if points == 0 {
				t.Fatal("the uninterrupted run reached no cut point")
			}
			t.Logf("%d cut points", points)
			want := encodeStream(t, refJob, "job")
			for k := int64(1); k <= points; k++ {
				c, job := run(k)
				if job.State() != StateCancelled {
					t.Fatalf("cut %d: job ended %s (err %v), want cancelled", k, job.State(), job.Err())
				}
				if tc.name == "replay" && len(job.Result().Steps) != int(k) {
					t.Fatalf("cut %d: partial replay holds %d steps", k, len(job.Result().Steps))
				}
				cut := encodeStream(t, job, "job")
				if cut == want {
					t.Fatalf("cut %d: the cancelled stream is the uninterrupted one", k)
				}
				resumed, err := c.e.Resume(job.ID)
				if err != nil {
					t.Fatalf("cut %d: Resume: %v", k, err)
				}
				waitJob(t, resumed)
				if got := encodeStream(t, resumed, "job"); got != want {
					t.Errorf("cut %d: resumed stream differs from the uninterrupted one:\n got %s\nwant %s", k, got, want)
				}
				if got := c.hits.Load(); got != k+points {
					t.Errorf("cut %d: the resumed job reached %d cut points, want all %d", k, got-k, points)
				}
				if job.State() != StateCancelled || job.ResumedBy() != resumed.ID {
					t.Errorf("cut %d: original is %s resumed by %q, want cancelled resumed by %s", k, job.State(), job.ResumedBy(), resumed.ID)
				}
				if got := encodeStream(t, job, "job"); got != cut {
					t.Errorf("cut %d: resuming changed the cancelled job's stream", k)
				}
			}
		})
	}
}
