package jobs

// Load-campaign jobs: the engine face of internal/multiuser. The
// contract under test — the engine's report is byte-identical to a
// direct multiuser.Run with the same options (one execution path), the
// event stream carries progress and a closing frame with the final
// counters, the report event renders findings as interleave
// injections, and the campaign counters land on /metrics.

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/weberr"
)

func TestLoadCampaignJobMatchesDirectRun(t *testing.T) {
	spec := Spec{
		Kind:           KindLoadCampaign,
		Workload:       "sites-notes",
		Users:          2,
		Cohort:         2,
		ScheduleBudget: 4,
		ScheduleSeed:   1,
	}

	direct, err := multiuser.Run(context.Background(), multiuser.Options{
		Workload: spec.Workload,
		Users:    spec.Users,
		Cohort:   spec.Cohort,
		Budget:   spec.ScheduleBudget,
		Seed:     spec.ScheduleSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Findings) == 0 {
		t.Fatal("the reference run surfaced no findings; the test needs a contention bug")
	}

	e := New(Options{Workers: 1})
	defer e.Close()
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if got := job.State(); got != StateDone {
		t.Fatalf("job state = %s, want done", got)
	}

	rep := job.LoadReport()
	if rep == nil {
		t.Fatal("job retained no load report")
	}
	if rep.Render() != direct.Render() {
		t.Errorf("engine report differs from direct run:\n engine:\n%s direct:\n%s", rep.Render(), direct.Render())
	}

	var progress, closing []LoadEvent
	var reports []ReportEvent
	for _, ev := range drainEvents(t, job) {
		switch v := ev.(type) {
		case LoadEvent:
			if v.CoverageBits > 0 || v.Findings > 0 {
				closing = append(closing, v)
			} else {
				progress = append(progress, v)
			}
		case ReportEvent:
			reports = append(reports, v)
		}
	}
	if len(progress) == 0 {
		t.Error("no progress load events published")
	}
	if len(closing) != 1 {
		t.Fatalf("closing load events = %d, want 1", len(closing))
	}
	fin := closing[0]
	if fin.Workload != rep.Workload || fin.Users != rep.Users || fin.Worlds != rep.Worlds ||
		fin.WorldsDone != rep.Worlds || fin.Executed != rep.Executed || fin.Shared != rep.Shared ||
		fin.CoverageBits != rep.CoverageBits || fin.Findings != len(rep.Findings) {
		t.Errorf("closing frame %+v does not match report %+v", fin, rep)
	}
	if len(reports) != 1 {
		t.Fatalf("report events = %d, want 1", len(reports))
	}
	if reports[0].Campaign != "load" {
		t.Errorf("report campaign = %q, want load", reports[0].Campaign)
	}
	if len(reports[0].Findings) != len(rep.Findings) {
		t.Fatalf("report findings = %d, want %d", len(reports[0].Findings), len(rep.Findings))
	}
	wantInj := weberr.Injection{Kind: weberr.Interleave, Detail: rep.Findings[0].Schedule}.String()
	if got := reports[0].Findings[0].Injection; got != wantInj {
		t.Errorf("finding injection = %q, want %q", got, wantInj)
	}

	var metrics strings.Builder
	if err := e.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"warr_load_users_total 2",
		"warr_load_findings_total 2",
		"warr_load_last_users 2",
		`warr_jobs_total{kind="load-campaign",state="done"} 1`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
}

func TestLoadCampaignJobRejectsUnknownWorkload(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	job, err := e.Submit(Spec{Kind: KindLoadCampaign, Workload: "no-such-workload"})
	if job != nil || !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("Submit = %v, %v; want an ErrInvalidSpec naming the workload", job, err)
	}
	if n := len(e.Jobs()); n != 0 {
		t.Errorf("the refused submission left %d jobs", n)
	}
}

// fakeLoadDistributor satisfies Distributor (trivially refusing) and
// LoadDistributor, executing schedule jobs out of order the way a
// remote pool completes them.
type fakeLoadDistributor struct {
	Distributor
	offered  int
	campaign string
}

var _ LoadDistributor = (*fakeLoadDistributor)(nil)

func (d *fakeLoadDistributor) DistributeLoad(ctx context.Context, sjobs []multiuser.ScheduleJob, spec DistSpec) ([]multiuser.ScheduleResult, bool) {
	d.offered += len(sjobs)
	d.campaign = spec.Campaign
	results := make([]multiuser.ScheduleResult, len(sjobs))
	for i := len(sjobs) - 1; i >= 0; i-- {
		results[len(sjobs)-1-i] = multiuser.ExecuteScheduleJob(sjobs[i])
	}
	return results, true
}

func TestLoadCampaignThroughDistributorMatchesLocal(t *testing.T) {
	spec := Spec{
		Kind:           KindLoadCampaign,
		Workload:       "docs-tally",
		Users:          4,
		Cohort:         2,
		ScheduleBudget: 3,
		ScheduleSeed:   7,
	}

	local := New(Options{Workers: 1})
	defer local.Close()
	lj, err := local.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, lj)

	dist := &fakeLoadDistributor{}
	remote := New(Options{Workers: 1, Distributor: dist})
	defer remote.Close()
	rj, err := remote.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, rj)

	if lj.State() != StateDone || rj.State() != StateDone {
		t.Fatalf("states: local %s, remote %s, want done/done", lj.State(), rj.State())
	}
	if dist.offered == 0 {
		t.Fatal("the distributor was never offered the schedule jobs")
	}
	if dist.campaign != "load" {
		t.Errorf("the distributor was offered campaign %q, want load", dist.campaign)
	}
	if lj.LoadReport().Render() != rj.LoadReport().Render() {
		t.Errorf("distributed report differs from local:\n local:\n%s remote:\n%s",
			lj.LoadReport().Render(), rj.LoadReport().Render())
	}
}

// parkingLoadDistributor parks the first load offer until the job's
// context ends and then refuses it, so a test can cancel or drain a
// load campaign it knows is running. Later offers are refused at once.
type parkingLoadDistributor struct {
	Distributor
	parked  atomic.Bool
	offered chan struct{}
}

func (d *parkingLoadDistributor) DistributeLoad(ctx context.Context, _ []multiuser.ScheduleJob, _ DistSpec) ([]multiuser.ScheduleResult, bool) {
	if d.parked.CompareAndSwap(false, true) {
		close(d.offered)
		<-ctx.Done()
	}
	return nil, false
}

// TestCancelledLoadCampaignEndsCancelled cancels a running load
// campaign, by the user and by an expired drain. Its local path returns
// the context's error, yet the job must end cancelled with the cause,
// not failed: the user-cancelled job then resumes, and the drained one
// is revived from the journal, each to the uninterrupted stream.
func TestCancelledLoadCampaignEndsCancelled(t *testing.T) {
	spec := Spec{Kind: KindLoadCampaign, Workload: "sites-notes", Users: 64, Cohort: 4, ScheduleBudget: 64}
	ref := New(Options{Workers: 1})
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refJob)
	want := encodeStream(t, refJob, "job")
	ref.Close()

	for _, drain := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		j, _, err := OpenJournal(path, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		d := &parkingLoadDistributor{offered: make(chan struct{})}
		e := New(Options{Workers: 1, Distributor: d, Journal: j})
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-d.offered
		wantCause := error(context.Canceled)
		if drain {
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			_ = e.Drain(expired)
			wantCause = CauseDrained
		} else if err := e.Cancel(job.ID, nil); err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		if job.State() != StateCancelled || job.Err() != nil || !errors.Is(job.CancelCause(), wantCause) {
			t.Fatalf("drain=%v: job ended %s with error %v and cause %v, want cancelled by %v",
				drain, job.State(), job.Err(), job.CancelCause(), wantCause)
		}

		var next *Job
		if drain {
			j2, recovered, err := OpenJournal(copyJournal(t, path), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(recovered) != 1 {
				t.Fatalf("recovered %d jobs, want the drained one", len(recovered))
			}
			e2 := New(Options{Workers: 1})
			defer e2.Close()
			revived := e2.Revive(recovered)
			if len(revived) != 1 {
				t.Fatalf("revived %d jobs, want 1", len(revived))
			}
			next = revived[0]
		} else if next, err = e.Resume(job.ID); err != nil {
			t.Fatal(err)
		}
		waitJob(t, next)
		if got := encodeStream(t, next, "job"); got != want {
			t.Errorf("drain=%v: re-run stream differs from the uninterrupted one:\n got %s\nwant %s", drain, got, want)
		}
		e.Close()
		j.Close()
	}
}
