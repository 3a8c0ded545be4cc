package jobs

// Engine tests: the one-execution-path contract (an engine replay is
// step-for-step the direct session replay), queue backpressure,
// cancellation parity with plain context cancellation, resumption,
// graceful drain (never dropping a job), and safety under concurrent
// enqueue/cancel/drain.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/core"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// recordScenario records a scenario's correct session.
func recordScenario(t *testing.T, sc apps.Scenario) command.Trace {
	t.Helper()
	env := apps.NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(sc.StartURL); err != nil {
		t.Fatal(err)
	}
	rec := core.New(env.Clock)
	rec.Attach(tab)
	if err := sc.Run(env, tab); err != nil {
		t.Fatal(err)
	}
	rec.Detach()
	return rec.Trace()
}

// recordSitesBug records the §V-C timing bug the way cmd/auser does:
// click Edit, save before the editor module arrives. The replayed trace
// reproduces a console TypeError.
func recordSitesBug(t *testing.T) command.Trace {
	t.Helper()
	env := apps.NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(apps.SitesURL); err != nil {
		t.Fatal(err)
	}
	rec := core.New(env.Clock)
	rec.Attach(tab)
	doc := tab.MainFrame().Doc()
	x, y := tab.Layout().Center(doc.GetElementByID("start"))
	tab.Click(x, y)
	for _, d := range doc.Root().ElementsByTag("div") {
		if strings.TrimSpace(d.TextContent()) == "Save" {
			sx, sy := tab.Layout().Center(d)
			tab.Click(sx, sy)
			break
		}
	}
	rec.Detach()
	if len(tab.ConsoleErrors()) == 0 {
		t.Fatal("the recorded session did not hit the Sites bug")
	}
	return rec.Trace()
}

func waitJob(t *testing.T, job *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", job.ID, err)
	}
}

func drainEvents(t *testing.T, job *Job) []Event {
	t.Helper()
	ch, stop := job.Events().Subscribe(0)
	defer stop()
	var evs []Event
	timeout := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		case <-timeout:
			t.Fatal("event stream never completed")
		}
	}
}

func TestReplayJobMatchesDirectSession(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())

	// The reference: a session driven directly, outside the engine, in
	// the same kind of fresh registry world the engine's default factory
	// builds.
	ref, err := replayer.New(registry.BrowserFactory(browser.DeveloperMode)(), replayer.Options{}).
		NewSession(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Run()

	e := New(Options{Workers: 1, QueueDepth: 4})
	defer e.Close()
	job, err := e.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)

	if job.State() != StateDone {
		t.Fatalf("job state %s (err %v)", job.State(), job.Err())
	}
	res := job.Result()
	if res.Played != refRes.Played || res.Failed != refRes.Failed || len(res.Steps) != len(refRes.Steps) {
		t.Fatalf("engine replay (%d/%d, %d steps) diverged from direct session (%d/%d, %d steps)",
			res.Played, res.Failed, len(res.Steps), refRes.Played, refRes.Failed, len(refRes.Steps))
	}
	for i := range res.Steps {
		if res.Steps[i].Status != refRes.Steps[i].Status {
			t.Errorf("step %d: engine %v, direct %v", i, res.Steps[i].Status, refRes.Steps[i].Status)
		}
	}
	if job.Tab().URL() != ref.Tab().URL() {
		t.Errorf("final URL %q, direct session %q", job.Tab().URL(), ref.Tab().URL())
	}

	// The event stream: queued, running, one step per command, the
	// summary, done — in that order.
	evs := drainEvents(t, job)
	var states []string
	var steps, summaries int
	for _, ev := range evs {
		switch v := ev.(type) {
		case StateEvent:
			states = append(states, v.State)
		case StepEvent:
			steps++
		case SummaryEvent:
			summaries++
		}
	}
	if want := []string{"queued", "running", "done"}; strings.Join(states, ",") != strings.Join(want, ",") {
		t.Errorf("state transitions %v, want %v", states, want)
	}
	if steps != len(tr.Commands) || summaries != 1 {
		t.Errorf("stream carried %d steps and %d summaries, want %d and 1",
			steps, summaries, len(tr.Commands))
	}
	if last := evs[len(evs)-1].(StateEvent); last.State != "done" {
		t.Errorf("stream does not end with the terminal state event: %v", evs[len(evs)-1])
	}
}

func TestSubmitRejectsUnknownKind(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()
	if _, err := e.Submit(Spec{Kind: Kind(42)}); err == nil {
		t.Fatal("Submit accepted an unknown kind")
	}
}

func TestQueueBackpressure(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()

	// Job 1 blocks its worker until released.
	release := make(chan struct{})
	var once sync.Once
	blocking := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			BeforeStep: func(idx int, cmd command.Command, tab *browser.Tab) {
				once.Do(func() { <-release })
			},
		}},
	}}
	j1, err := e.Submit(blocking)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked j1 up, so j2 really sits in the queue.
	for j1.State() == StateQueued {
		time.Sleep(time.Millisecond)
	}
	j2, err := e.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// Queue full: the third submission fails fast, it does not block.
	if _, err := e.Submit(Spec{Kind: KindReplay, Trace: tr}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on a full queue: %v, want ErrQueueFull", err)
	}
	if depth, capacity := e.QueueDepth(); depth != 1 || capacity != 1 {
		t.Errorf("QueueDepth = %d/%d, want 1/1", depth, capacity)
	}
	close(release)
	waitJob(t, j1)
	waitJob(t, j2)
	// Capacity freed: submissions flow again.
	j3, err := e.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatalf("Submit after the queue drained: %v", err)
	}
	waitJob(t, j3)
	if j3.State() != StateDone {
		t.Errorf("job after backpressure ended %s", j3.State())
	}
}

func TestSubmitWhileDrainingFails(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 1})
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !e.Draining() {
		t.Error("Draining() false after Drain")
	}
	if _, err := e.Submit(Spec{Kind: KindReplay}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit on a draining engine: %v, want ErrDraining", err)
	}
}

// TestCancellationParityWithDirectContextCancel is the cancellation
// contract: cancelling a job through the engine API lands on the same
// context mechanism a direct caller uses, so both produce the same
// partial result — same steps, same counts, same cause.
func TestCancellationParityWithDirectContextCancel(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	errStop := errors.New("stop requested")
	const stopAfter = 2 // cancel once the step at this index has run

	// Direct path: context.WithCancelCause around a plain session.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	direct, err := replayer.New(registry.BrowserFactory(browser.DeveloperMode)(), replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				if step.Index == stopAfter {
					cancel(errStop)
				}
			},
		}},
	}).NewSession(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	directRes := direct.Run()
	if !directRes.Cancelled {
		t.Fatal("direct session was not cancelled")
	}

	// Engine path: the same hook calls Engine.Cancel instead.
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()
	var job *Job
	var jobMu sync.Mutex
	spec := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				if step.Index == stopAfter {
					jobMu.Lock()
					id := job.ID
					jobMu.Unlock()
					if err := e.Cancel(id, errStop); err != nil {
						t.Errorf("Cancel: %v", err)
					}
				}
			},
		}},
	}}
	jobMu.Lock()
	job, err = e.Submit(spec)
	jobMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)

	if job.State() != StateCancelled {
		t.Fatalf("job state %s, want cancelled", job.State())
	}
	if !errors.Is(job.CancelCause(), errStop) {
		t.Errorf("cancel cause %v, want errStop", job.CancelCause())
	}
	res := job.Result()
	if !res.Cancelled || !errors.Is(res.CancelCause, errStop) {
		t.Fatalf("engine partial result not marked cancelled with the cause: %+v", res)
	}
	if res.Played != directRes.Played || res.Failed != directRes.Failed || len(res.Steps) != len(directRes.Steps) {
		t.Fatalf("engine partial (%d/%d, %d steps) diverged from direct partial (%d/%d, %d steps)",
			res.Played, res.Failed, len(res.Steps),
			directRes.Played, directRes.Failed, len(directRes.Steps))
	}
	for i := range res.Steps {
		if res.Steps[i].Status != directRes.Steps[i].Status {
			t.Errorf("step %d: engine %v, direct %v", i, res.Steps[i].Status, directRes.Steps[i].Status)
		}
	}

	// Cancelling a finished job is an error, not a silent no-op.
	if err := e.Cancel(job.ID, nil); !errors.Is(err, ErrJobFinished) {
		t.Errorf("Cancel on a finished job: %v, want ErrJobFinished", err)
	}
}

// TestResumeReplayMatchesUninterrupted cancels a replay mid-trace,
// resumes it, and requires the resumed job — a re-run of the spec — to
// produce exactly the final result and step event stream of an
// uninterrupted replay; a job resumes once, and only when cancelled.
func TestResumeReplayMatchesUninterrupted(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	if len(tr.Commands) < 4 {
		t.Fatalf("scenario too short to interrupt: %d commands", len(tr.Commands))
	}

	e := New(Options{Workers: 1, QueueDepth: 2})
	defer e.Close()

	// The uninterrupted reference, on the same engine.
	refJob, err := e.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refJob)
	ref := refJob.Result()

	var cancelled atomic.Bool
	var job *Job
	var jobMu sync.Mutex
	spec := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				if step.Index == 1 && cancelled.CompareAndSwap(false, true) {
					jobMu.Lock()
					id := job.ID
					jobMu.Unlock()
					_ = e.Cancel(id, nil)
				}
			},
		}},
	}}
	jobMu.Lock()
	job, err = e.Submit(spec)
	jobMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.State() != StateCancelled {
		t.Fatalf("job state %s, want cancelled", job.State())
	}
	partial := len(job.Result().Steps)
	if partial == 0 || partial >= len(tr.Commands) {
		t.Fatalf("cancellation was not mid-trace: %d of %d steps", partial, len(tr.Commands))
	}

	resumed, err := e.Resume(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.ResumedBy() != resumed.ID {
		t.Errorf("ResumedBy = %q, want %q", job.ResumedBy(), resumed.ID)
	}
	waitJob(t, resumed)
	if resumed.State() != StateDone {
		t.Fatalf("resumed job ended %s (err %v)", resumed.State(), resumed.Err())
	}
	res := resumed.Result()
	if res.Cancelled || res.Played != ref.Played || res.Failed != ref.Failed || len(res.Steps) != len(ref.Steps) {
		t.Fatalf("resumed result (%d/%d, %d steps, cancelled=%v) diverged from uninterrupted (%d/%d, %d steps)",
			res.Played, res.Failed, len(res.Steps), res.Cancelled, ref.Played, ref.Failed, len(ref.Steps))
	}
	for i := range res.Steps {
		if res.Steps[i].Status != ref.Steps[i].Status {
			t.Errorf("step %d: resumed %v, uninterrupted %v", i, res.Steps[i].Status, ref.Steps[i].Status)
		}
	}

	// The resumed job re-runs the whole trace, so a subscriber sees
	// every command exactly once.
	var steps int
	for _, ev := range drainEvents(t, resumed) {
		if _, ok := ev.(StepEvent); ok {
			steps++
		}
	}
	if steps != len(tr.Commands) {
		t.Errorf("resumed stream carried %d step events, want %d", steps, len(tr.Commands))
	}

	// A job resumes at most once.
	if _, err := e.Resume(job.ID); err == nil {
		t.Error("second Resume of the same job succeeded")
	}
	// Only cancelled jobs resume.
	if _, err := e.Resume(refJob.ID); !errors.Is(err, ErrNotResumable) {
		t.Errorf("Resume of a done job: %v, want ErrNotResumable", err)
	}
}

// TestResumeNavigationCampaignReRunsToSameFindings cancels a navigation
// campaign mid-run and resumes it: the resumed job re-runs the whole
// plan, and its report must equal an uncancelled campaign's.
func TestResumeNavigationCampaignReRunsToSameFindings(t *testing.T) {
	tr := recordScenario(t, apps.EditSiteScenario())
	e := New(Options{Workers: 1, QueueDepth: 2})
	defer e.Close()

	ref, err := e.Submit(Spec{Kind: KindNavigationCampaign, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, ref)
	if ref.State() != StateDone {
		t.Fatalf("reference campaign ended %s (err %v)", ref.State(), ref.Err())
	}

	// Cancel after the second erroneous trace finished. The campaign
	// checks its context between traces, so the cut is at a trace
	// boundary.
	var replayed atomic.Int32
	var job *Job
	var jobMu sync.Mutex
	spec := Spec{
		Kind: KindNavigationCampaign, Trace: tr,
		Grammar: ref.Grammar(), // same plan as the reference
		Oracle: func(tab *browser.Tab, res *replayer.Result) error {
			if replayed.Add(1) == 2 {
				jobMu.Lock()
				id := job.ID
				jobMu.Unlock()
				_ = e.Cancel(id, nil)
			}
			return weberr.ConsoleOracle(tab, res)
		},
	}
	jobMu.Lock()
	job, err = e.Submit(spec)
	jobMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.State() != StateCancelled || job.Report().Skipped == 0 {
		t.Fatalf("campaign ended %s with %d traces skipped, want cancelled mid-run", job.State(), job.Report().Skipped)
	}

	resumed, err := e.Resume(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, resumed)
	if resumed.State() != StateDone {
		t.Fatalf("resumed campaign ended %s (err %v)", resumed.State(), resumed.Err())
	}
	rep, refRep := resumed.Report(), ref.Report()
	if rep.Generated != refRep.Generated || rep.Skipped != 0 {
		t.Errorf("resumed report generated=%d skipped=%d, want generated=%d skipped=0",
			rep.Generated, rep.Skipped, refRep.Generated)
	}
	got, want := findingKeys(rep), findingKeys(refRep)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("resumed findings diverged:\n got %v\nwant %v", got, want)
	}
}

// findingKeys canonicalizes report findings for comparison.
func findingKeys(rep *weberr.Report) []string {
	keys := make([]string, len(rep.Findings))
	for i, f := range rep.Findings {
		keys[i] = f.Injection.String() + " => " + f.Observed.Error()
	}
	return keys
}

// TestDrainCheckpointsEveryJob is the never-drop contract: a drain
// whose deadline has already passed must leave every submitted job in a
// terminal state — running jobs checkpointed with partial results,
// queued jobs resolved as cancelled — with none lost.
func TestDrainCheckpointsEveryJob(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	e := New(Options{Workers: 1, QueueDepth: 8})

	// The running job replays slowly enough for the drain to interrupt.
	slow := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				time.Sleep(10 * time.Millisecond)
			},
		}},
	}}
	var jobs []*Job
	j, err := e.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, j)
	for i := 0; i < 3; i++ {
		j, err := e.Submit(Spec{Kind: KindReplay, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Drain(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with an expired context returned %v", err)
	}

	for i, job := range jobs {
		state := job.State()
		switch state {
		case StateDone:
			// Finished before the drain reached it — fine.
		case StateCancelled:
			if !errors.Is(job.CancelCause(), CauseDrained) {
				t.Errorf("job %d cancelled with cause %v, want CauseDrained", i, job.CancelCause())
			}
			if job.Result() == nil {
				t.Errorf("job %d checkpointed without a (partial) result", i)
			}
			if !job.Events().Closed() {
				t.Errorf("job %d event stream left open", i)
			}
		default:
			t.Errorf("job %d left in state %s — dropped by drain", i, state)
		}
	}
}

// TestConcurrentEnqueueCancelDrain exercises the engine under the race
// detector: submitters, cancellers, and a drain all at once, with every
// accepted job required to reach a terminal state.
func TestConcurrentEnqueueCancelDrain(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	e := New(Options{Workers: 4, QueueDepth: 64})

	var mu sync.Mutex
	var accepted []*Job
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				job, err := e.Submit(Spec{
					Kind: KindReplay, Trace: tr,
					Replayer: replayer.Options{Pacing: replayer.PaceNone},
				})
				if err != nil {
					// Backpressure or drain — both are legitimate outcomes.
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, job)
				mu.Unlock()
				if i%2 == 0 {
					// Cancel some jobs concurrently; finished ones report so.
					if err := e.Cancel(job.ID, nil); err != nil && !errors.Is(err, ErrJobFinished) {
						t.Errorf("Cancel: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, job := range accepted {
		switch job.State() {
		case StateDone, StateCancelled, StateFailed:
		default:
			t.Errorf("job %s left in state %s after drain", job.ID, job.State())
		}
		if !job.Events().Closed() {
			t.Errorf("job %s event stream left open", job.ID)
		}
	}
}

// TestEveryStreamOpensWithOneQueuedFrame pins the state frames of a
// job's stream: exactly one queued frame opens it, even when a worker
// picks the job up before Submit returns, and no state frame follows
// the terminal one.
func TestEveryStreamOpensWithOneQueuedFrame(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	tr.Commands = tr.Commands[:1]
	e := New(Options{Workers: 2, QueueDepth: 64})
	defer e.Close()
	var submitted []*Job
	for i := 0; i < 48; i++ {
		job, err := e.Submit(Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{Pacing: replayer.PaceNone}})
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := e.Cancel(job.ID, nil); err != nil && !errors.Is(err, ErrJobFinished) {
				t.Fatal(err)
			}
		}
		submitted = append(submitted, job)
	}
	for _, job := range submitted {
		waitJob(t, job)
		var states []string
		for _, ev := range drainEvents(t, job) {
			if se, ok := ev.(StateEvent); ok {
				states = append(states, se.State)
			}
		}
		want := []string{"queued", "running", job.State().String()}
		if strings.Join(states, ",") != strings.Join(want, ",") {
			t.Errorf("%s: state frames %v, want %v", job.ID, states, want)
		}
	}
}

// TestReportIngestionClassifiesConsoleError drives the AUsER pipeline:
// a report of the Sites timing bug replays, minimizes, and classifies
// as a console error, with the minimized reproducer still a prefix.
func TestReportIngestionClassifiesConsoleError(t *testing.T) {
	tr := recordSitesBug(t)
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()
	job, err := e.Submit(Spec{Kind: KindReport, Trace: tr, Description: "save did nothing"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.State() != StateDone {
		t.Fatalf("ingestion ended %s (err %v)", job.State(), job.Err())
	}
	cls := job.Classification()
	if cls == nil {
		t.Fatal("no classification stored")
	}
	if cls.Verdict != "console-error" {
		t.Fatalf("verdict %q, want console-error (signal %q)", cls.Verdict, cls.Signal)
	}
	if cls.Signal == "" {
		t.Error("console-error verdict with no signal")
	}
	if n := len(cls.Minimized.Commands); n == 0 || n > len(tr.Commands) {
		t.Errorf("minimized to %d commands of %d", n, len(tr.Commands))
	}
	if cls.Replays < 2 {
		t.Errorf("minimizer spent %d replays, expected at least the ingestion replay plus one probe", cls.Replays)
	}
	// The stream ends with the classification before the terminal state.
	evs := drainEvents(t, job)
	var sawClassification bool
	for _, ev := range evs {
		if c, ok := ev.(ClassificationEvent); ok {
			sawClassification = true
			if c.Verdict != cls.Verdict || c.MinimizedCommands != len(cls.Minimized.Commands) {
				t.Errorf("classification event %+v disagrees with stored classification %+v", c, cls)
			}
		}
	}
	if !sawClassification {
		t.Error("no classification event in the stream")
	}
}

// TestReportIngestionClassifiesReplayFailure drives the AUsER pipeline
// on a report whose trace holds one command that cannot resolve, with
// relaxation and the coordinate fallback off: the verdict is a replay
// failure naming that command, the reproducer is the shortest prefix
// that still fails, and the minimizer spends one replay per bisection
// step on top of the ingestion replay.
func TestReportIngestionClassifiesReplayFailure(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	broken := -1
	for i := 1; i < len(tr.Commands)-1; i++ {
		if tr.Commands[i].Action == command.Click {
			broken = i
		}
	}
	if broken < 0 {
		t.Fatal("no click inside the trace")
	}
	tr = tr.Clone()
	tr.Commands[broken].XPath = `//div[@id="no-such-element"]`
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()
	job, err := e.Submit(Spec{Kind: KindReport, Trace: tr, Replayer: replayer.Options{
		DisableRelaxation: true, DisableCoordinateFallback: true}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	cls := job.Classification()
	if job.State() != StateDone || cls == nil {
		t.Fatalf("ingestion ended %s (err %v) with classification %v", job.State(), job.Err(), cls)
	}
	if cls.Verdict != "replay-failure" {
		t.Fatalf("verdict %q, want replay-failure (signal %q)", cls.Verdict, cls.Signal)
	}
	if want := fmt.Sprintf("command %d (%s) failed: ", broken, command.Click); !strings.HasPrefix(cls.Signal, want) {
		t.Errorf("signal %q, want it to start %q", cls.Signal, want)
	}
	if !reflect.DeepEqual(cls.Minimized.Commands, tr.Commands[:broken+1]) || cls.Minimized.StartURL != tr.StartURL {
		t.Errorf("minimized to %d commands, want the %d-command prefix ending at the broken one",
			len(cls.Minimized.Commands), broken+1)
	}
	// The bisection keeps a failing length hi and a passing length lo;
	// a prefix fails exactly when it holds the broken command.
	steps := 0
	for lo, hi := -1, len(tr.Commands); hi-lo > 1; steps++ {
		if mid := (lo + hi) / 2; mid > broken {
			hi = mid
		} else {
			lo = mid
		}
	}
	if cls.Replays != 1+steps {
		t.Errorf("minimizer spent %d replays, want 1 + %d bisection steps", cls.Replays, steps)
	}
}

// TestReplicatedReplaySummaries checks the warr-replay -parallel path:
// N replicas, N summary events, identical outcomes.
func TestReplicatedReplaySummaries(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()
	job, err := e.Submit(Spec{Kind: KindReplay, Trace: tr, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.State() != StateDone {
		t.Fatalf("job ended %s (err %v)", job.State(), job.Err())
	}
	outs := job.Outcomes()
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	var summaries []SummaryEvent
	for _, ev := range drainEvents(t, job) {
		if s, ok := ev.(SummaryEvent); ok {
			summaries = append(summaries, s)
		}
	}
	if len(summaries) != 3 {
		t.Fatalf("%d summary events, want 3", len(summaries))
	}
	for i, s := range summaries {
		if s.Replica != i {
			t.Errorf("summary %d carries replica %d", i, s.Replica)
		}
		if s.Played != summaries[0].Played || s.Complete != summaries[0].Complete {
			t.Errorf("replica %d diverged: %+v vs %+v", i, s, summaries[0])
		}
	}
}
