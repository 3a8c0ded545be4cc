package jobs

// Write-ahead journal tests: the crash-safety contract. A SIGKILL'd
// engine is simulated by copying the journal file at the kill instant —
// appends are fsync'd, so the copy is byte-faithful to what a killed
// process would leave behind — and replaying the copy into a fresh
// engine, which must resume every journaled job with results identical
// to an uninterrupted run.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// copyJournal snapshots the journal file — the state a SIGKILL at this
// instant would leave on disk.
func copyJournal(t *testing.T, src string) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "killed.journal")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func engineMetric(t *testing.T, e *Engine, name string) string {
	t.Helper()
	var b strings.Builder
	if err := e.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metric %s not present in:\n%s", name, b.String())
	return ""
}

// TestJournalRevivesKilledJobs is the SIGKILL restart path: an engine
// with a running job and a queued backlog is "killed" (journal copied
// mid-flight), and a fresh engine booted from the copy must revive
// every journaled job — running and queued alike — and finish them
// with results identical to uninterrupted runs. Non-journalable
// submissions (in-process grammar closures) must stay out of the
// journal rather than revive broken.
func TestJournalRevivesKilledJobs(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	ctr := recordScenario(t, apps.EditSiteScenario())

	// Uninterrupted references.
	ref := New(Options{Workers: 1, QueueDepth: 8})
	refReplay, err := ref.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	refCampaign, err := ref.Submit(Spec{Kind: KindNavigationCampaign, Trace: ctr})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refReplay)
	waitJob(t, refCampaign)
	ref.Close()

	path := filepath.Join(t.TempDir(), "jobs.journal")
	j1, recovered, err := OpenJournal(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(recovered))
	}

	e1 := New(Options{Workers: 1, QueueDepth: 8, Journal: j1})
	defer e1.Close()

	// The running job blocks on its first step, pinning the queue.
	release := make(chan struct{})
	var once sync.Once
	blocker := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			BeforeStep: func(idx int, cmd command.Command, tab *browser.Tab) {
				once.Do(func() { <-release })
			},
		}},
	}}
	if _, err := e1.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(Spec{Kind: KindReplay, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(Spec{Kind: KindNavigationCampaign, Trace: ctr}); err != nil {
		t.Fatal(err)
	}
	// A grammar-injected campaign cannot cross the process boundary and
	// must not be journaled.
	tree, err := weberr.InferTaskTree(apps.BrowserFactory(browser.DeveloperMode), ctr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(Spec{Kind: KindNavigationCampaign, Grammar: weberr.FromTaskTree(tree)}); err != nil {
		t.Fatal(err)
	}

	killed := copyJournal(t, path) // SIGKILL happens here
	close(release)

	j2, recovered, err := OpenJournal(killed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recovered) != 3 {
		ids := make([]string, len(recovered))
		for i, rj := range recovered {
			ids[i] = fmt.Sprintf("epoch %d %s", rj.Epoch, rj.ID)
		}
		t.Fatalf("recovered %d jobs (%v), want the 3 journalable ones", len(recovered), ids)
	}

	e2 := New(Options{Workers: 1, QueueDepth: 8, Journal: j2})
	defer e2.Close()
	revived := e2.Revive(recovered)
	if len(revived) != 3 {
		t.Fatalf("revived %d jobs, want 3", len(revived))
	}
	for _, job := range revived {
		waitJob(t, job)
		if job.State() != StateDone {
			t.Fatalf("revived job %s ended %s (err %v)", job.ID, job.State(), job.Err())
		}
	}
	if got := engineMetric(t, e2, "warr_journal_replayed_jobs"); got != "3" {
		t.Errorf("warr_journal_replayed_jobs = %s, want 3", got)
	}

	// Revived replays (the blocker re-runs whole — hooks are observers
	// and never journaled) must match the uninterrupted reference.
	want := refReplay.Result()
	for _, job := range revived[:2] {
		res := job.Result()
		if res.Played != want.Played || res.Failed != want.Failed || len(res.Steps) != len(want.Steps) {
			t.Errorf("revived %s result (%d/%d, %d steps) diverged from uninterrupted (%d/%d, %d steps)",
				job.ID, res.Played, res.Failed, len(res.Steps), want.Played, want.Failed, len(want.Steps))
		}
	}
	// The revived campaign's final report must be unchanged.
	rep := revived[2].Report()
	if rep == nil {
		t.Fatal("revived campaign produced no report")
	}
	if !reflect.DeepEqual(findingKeys(refCampaign.Report()), findingKeys(rep)) {
		t.Errorf("revived campaign findings diverged\nuninterrupted: %v\nrevived:       %v",
			findingKeys(refCampaign.Report()), findingKeys(rep))
	}

	// A second crash never revives twice: rebooting from the same
	// journal after the revived jobs finished recovers nothing.
	j2.Close()
	j3, again, err := OpenJournal(killed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(again) != 0 {
		t.Fatalf("second boot recovered %d jobs, want 0", len(again))
	}
}

// TestJournalRevivesDrainCheckpointedReplay is the warr-serve shutdown
// contract: a replay interrupted by an exhausted drain is journaled as
// drained, and the next boot re-runs its spec to the same event stream,
// byte for byte, as an uninterrupted run.
func TestJournalRevivesDrainCheckpointedReplay(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	if len(tr.Commands) < 4 {
		t.Fatalf("scenario too short to interrupt: %d commands", len(tr.Commands))
	}

	ref := New(Options{Workers: 1, QueueDepth: 2})
	refJob, err := ref.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refJob)
	want := refJob.Result()
	wantStream := encodeStream(t, refJob, refJob.ID)
	ref.Close()

	path := filepath.Join(t.TempDir(), "jobs.journal")
	j1, _, err := OpenJournal(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	e1 := New(Options{Workers: 1, QueueDepth: 2, Journal: j1})

	// Slow replay: the drain must catch it mid-trace.
	stepped := make(chan struct{}, len(tr.Commands))
	slow := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				stepped <- struct{}{}
				time.Sleep(25 * time.Millisecond)
			},
		}},
	}}
	job, err := e1.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stepped:
	case <-time.After(30 * time.Second):
		t.Fatal("the slow replay never started stepping")
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = e1.Drain(expired)
	if job.State() != StateCancelled {
		t.Fatalf("drained job ended %s, want cancelled", job.State())
	}
	partial := len(job.Result().Steps)
	if partial == 0 || partial >= len(tr.Commands) {
		t.Fatalf("drain was not mid-trace: %d of %d steps", partial, len(tr.Commands))
	}

	killed := copyJournal(t, path)
	j2, recovered, err := OpenJournal(killed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want the drained one", len(recovered))
	}

	e2 := New(Options{Workers: 1, QueueDepth: 2, Journal: j2})
	defer e2.Close()
	revived := e2.Revive(recovered)
	if len(revived) != 1 {
		t.Fatalf("revived %d jobs, want 1", len(revived))
	}
	waitJob(t, revived[0])
	if revived[0].State() != StateDone {
		t.Fatalf("revived job ended %s (err %v)", revived[0].State(), revived[0].Err())
	}
	res := revived[0].Result()
	if res.Cancelled || res.Played != want.Played || res.Failed != want.Failed || len(res.Steps) != len(want.Steps) {
		t.Fatalf("revived result (%d/%d, %d steps, cancelled=%v) diverged from uninterrupted (%d/%d, %d steps)",
			res.Played, res.Failed, len(res.Steps), res.Cancelled, want.Played, want.Failed, len(want.Steps))
	}
	for i := range res.Steps {
		if res.Steps[i].Status != want.Steps[i].Status {
			t.Errorf("step %d: revived %v, uninterrupted %v", i, res.Steps[i].Status, want.Steps[i].Status)
		}
	}
	// Re-running the spec rebuilds the same worlds, so a subscriber of
	// the revived job sees exactly the uninterrupted stream.
	if got := encodeStream(t, revived[0], refJob.ID); got != wantStream {
		t.Errorf("revived stream differs from the uninterrupted one:\n got %s\nwant %s", got, wantStream)
	}
}

// encodeStream renders a finished job's whole event stream as JSON
// lines, with the job id in state frames mapped to id so streams of two
// engines compare byte for byte.
func encodeStream(t *testing.T, job *Job, id string) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range drainEvents(t, job) {
		if se, ok := ev.(StateEvent); ok {
			se.Job = id
			ev = se
		}
		line, err := EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
	}
	return b.String()
}

// TestJournalOldCheckpointRevivesWhole boots on a journal an older
// build wrote: a drained replay with a checkpoint record carrying a
// world image. The image is garbage on purpose — it must never be
// decoded. The job revives once, re-runs whole, and nothing warns.
func TestJournalOldCheckpointRevivesWhole(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	ref := New(Options{Workers: 1, QueueDepth: 2})
	refJob, err := ref.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, refJob)
	wantStream := encodeStream(t, refJob, refJob.ID)
	ref.Close()

	trace, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := writeJournal(t, `{"rec":"boot"}`,
		`{"rec":"submit","job":"job-1","spec":{"kind":"replay","trace":`+string(trace)+`,"mode":2,"replayer":`+zeroReplayerJSON+`}}`,
		`{"rec":"checkpoint","job":"job-1","image":"!!not base64, not an image!!"}`,
		`{"rec":"state","job":"job-1","state":"cancelled","cause":"jobs: checkpointed by engine drain"}`)

	var mu sync.Mutex
	var warnings []string
	logf := func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	j, recovered, err := OpenJournal(path, logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].ID != "job-1" || recovered[0].Epoch != 1 {
		t.Fatalf("recovered %+v, want epoch-1 job-1", recovered)
	}
	e := New(Options{Workers: 1, QueueDepth: 2, Journal: j})
	revived := e.Revive(recovered)
	if len(revived) != 1 {
		t.Fatalf("revived %d jobs, want 1", len(revived))
	}
	waitJob(t, revived[0])
	if got := encodeStream(t, revived[0], refJob.ID); got != wantStream {
		t.Errorf("revived stream differs from a whole run:\n got %s\nwant %s", got, wantStream)
	}
	e.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, w := range warnings {
		if !strings.HasPrefix(w, "jobs: revived epoch 1 job-1 as ") {
			t.Errorf("unexpected journal warning: %s", w)
		}
	}
	mu.Unlock()

	j2, again, err := OpenJournal(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(again) != 0 {
		t.Fatalf("second boot recovered %+v, want nothing: the job was revived once", again)
	}
}

// TestJournalSkipsUserCancelledJobs pins the revival filter: a job the
// user cancelled on purpose reached its terminal state deliberately
// and must stay dead across reboots — only drain-checkpointed
// cancellations revive.
func TestJournalSkipsUserCancelledJobs(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j1, _, err := OpenJournal(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	e1 := New(Options{Workers: 1, QueueDepth: 2, Journal: j1})
	defer e1.Close()

	stepped := make(chan struct{}, len(tr.Commands))
	slow := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				stepped <- struct{}{}
				time.Sleep(10 * time.Millisecond)
			},
		}},
	}}
	job, err := e1.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stepped:
	case <-time.After(30 * time.Second):
		t.Fatal("the slow replay never started stepping")
	}
	if err := e1.Cancel(job.ID, nil); err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.State() != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", job.State())
	}

	killed := copyJournal(t, path)
	j2, recovered, err := OpenJournal(killed, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered %d jobs, want 0: user cancellation is deliberate", len(recovered))
	}
}

// TestTerminalRecordPrecedesPublication pins the terminal commit
// order: by the time Wait returns, and by the time a subscriber sees
// the terminal state frame, the journal already holds the job's
// terminal state record — for done, failed and cancelled jobs alike.
// Publishing first would let a crash in between revive a job its
// client already saw finish.
func TestTerminalRecordPrecedesPublication(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := OpenJournal(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e := New(Options{Workers: 1, QueueDepth: 4, Journal: j})
	defer e.Close()

	journaled := func(job *Job, state string) bool {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"rec":"state","job":%q,"state":%q`, job.ID, state)
		return strings.Contains(string(data), want)
	}
	stepped := make(chan struct{}, len(tr.Commands))
	slow := Spec{Kind: KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(replayer.Step, *browser.Tab) {
				stepped <- struct{}{}
				time.Sleep(10 * time.Millisecond)
			},
		}},
	}}
	cases := []struct {
		state string
		spec  Spec
	}{
		{"done", Spec{Kind: KindReplay, Trace: tr}},
		{"failed", Spec{Kind: KindReplay, Trace: command.Trace{StartURL: "http://no-such-host.test/"}}},
		{"cancelled", slow},
	}
	for _, c := range cases {
		job, err := e.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		// A subscriber checks the journal the moment the terminal frame
		// arrives.
		frameOK := make(chan bool, 1)
		ch, stop := job.Events().Subscribe(0)
		go func() {
			defer stop()
			for ev := range ch {
				if se, ok := ev.(StateEvent); ok && se.State == c.state {
					frameOK <- journaled(job, c.state)
					return
				}
			}
			frameOK <- false
		}()
		if c.state == "cancelled" {
			select {
			case <-stepped:
			case <-time.After(30 * time.Second):
				t.Fatal("the slow replay never started stepping")
			}
			if err := e.Cancel(job.ID, nil); err != nil {
				t.Fatal(err)
			}
		}
		waitJob(t, job)
		if got := job.State().String(); got != c.state {
			t.Fatalf("%s: job ended %s", c.state, got)
		}
		if !journaled(job, c.state) {
			t.Errorf("%s: Wait returned before the terminal record was journaled", c.state)
		}
		select {
		case ok := <-frameOK:
			if !ok {
				t.Errorf("%s: the terminal frame was published before its journal record", c.state)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: no terminal frame", c.state)
		}
	}
}

// TestJournalTornTailRecovery pins the corrupted-journal contract: the
// torn or garbled last write of a crash is detected, warned about, and
// truncated away — never a panic, and never poison for the records
// before it or after the next boot.
func TestJournalTornTailRecovery(t *testing.T) {
	cases := []struct {
		name string
		tail string
		warn string
	}{
		{"truncated", `{"rec":"state","job":"job-1","state":"done"`, "truncated record"},
		{"corrupted", "not json at all\x01\xff\n", "corrupted record"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := writeJournal(t, `{"rec":"boot"}`, emptyReplaySubmit("job-1"), emptyReplaySubmit("job-2"))
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(c.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			var mu sync.Mutex
			var warnings []string
			logf := func(format string, args ...any) {
				mu.Lock()
				warnings = append(warnings, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			j2, recovered, err := OpenJournal(path, logf)
			if err != nil {
				t.Fatalf("reopening journal with a %s tail: %v", c.name, err)
			}
			if len(recovered) != 2 {
				t.Fatalf("recovered %d jobs, want both good submits", len(recovered))
			}
			warned := false
			for _, w := range warnings {
				if strings.Contains(w, c.warn) {
					warned = true
				}
			}
			if !warned {
				t.Errorf("no %q warning in %q", c.warn, warnings)
			}
			// New records append cleanly past the truncation point and
			// the next scan reads the whole history undisturbed: marking
			// epoch-1 job-1 revived (what Engine.Revive writes) must
			// keep it from recovering again.
			j2.note(journalRecord{Rec: "revived", OfEpoch: 1, Job: "job-1"})
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3, recovered, err := OpenJournal(path, func(format string, args ...any) {
				t.Errorf("clean reopen warned: "+format, args...)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer j3.Close()
			if len(recovered) != 1 || recovered[0].ID != "job-2" || recovered[0].Epoch != 1 {
				t.Fatalf("final recovery %+v, want exactly epoch-1 job-2 (job-1 was revived after the repair)", recovered)
			}
		})
	}
}

// zeroReplayerJSON is the journal encoding of zero replayer options.
const zeroReplayerJSON = `{"pacing":0,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}}`

// emptyReplaySubmit is the submit record of a replay job with an empty
// trace, as every build since the journal landed writes it.
func emptyReplaySubmit(id string) string {
	return `{"rec":"submit","job":"` + id + `","spec":{"kind":"replay","trace":{"StartURL":"","Commands":null},"replayer":` + zeroReplayerJSON + `}}`
}

// writeJournal writes a journal file holding lines, one record each.
func writeJournal(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalForwardReadable pins forward compatibility: record kinds
// and job kinds a newer build might write pass through an older scan
// without truncation or recovery damage. A job of an unknown kind is
// warned about and not revived; the records after it still apply.
func TestJournalForwardReadable(t *testing.T) {
	lines := []string{
		`{"rec":"boot"}`,
		emptyReplaySubmit("job-1"),
		`{"rec":"submit","job":"job-2","spec":{"kind":"time-travel-campaign","trace":{"StartURL":"","Commands":null},"replayer":` + zeroReplayerJSON + `,"eras":3}}`,
		`{"rec":"shiny-new-thing","payload":42}`,
		emptyReplaySubmit("job-3"),
		`{"rec":"state","job":"job-3","state":"done"}`,
	}
	path := writeJournal(t, lines...)
	var mu sync.Mutex
	var warnings []string
	logf := func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	j, recovered, err := OpenJournal(path, logf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(append(lines, `{"rec":"boot"}`), "\n") + "\n"; string(data) != want {
		t.Errorf("reopening rewrote the journal:\n got %s\nwant %s", data, want)
	}
	var ids []string
	for _, rj := range recovered {
		ids = append(ids, rj.ID)
	}
	if !reflect.DeepEqual(ids, []string{"job-1", "job-2"}) {
		t.Fatalf("recovered %v, want job-1 and job-2 (job-3 finished)", ids)
	}
	e := New(Options{Workers: 1, QueueDepth: 2, Journal: j})
	revived := e.Revive(recovered)
	e.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(revived) != 1 || revived[0].Spec.Kind != KindReplay {
		t.Fatalf("revived %d jobs, want only the replay job-1", len(revived))
	}
	mu.Lock()
	defer mu.Unlock()
	want := "jobs: not reviving epoch 1 job-2: unknown kind"
	for _, w := range warnings {
		if w == want {
			return
		}
	}
	t.Errorf("no %q warning in %q", want, warnings)
}

// TestJournalSkipsInvalidSpecs: revival passes every journaled spec
// through the one validator, so a journal line holding a count out of
// bounds or a value no build defines is warned about and skipped, never
// run, and the valid jobs around it still revive.
func TestJournalSkipsInvalidSpecs(t *testing.T) {
	replay := `"kind":"replay","trace":{"StartURL":"","Commands":null},"replayer":` + zeroReplayerJSON
	path := writeJournal(t,
		`{"rec":"boot"}`,
		`{"rec":"submit","job":"job-1","spec":{`+replay+`,"parallelism":5000}}`,
		`{"rec":"submit","job":"job-2","spec":{`+replay+`,"mode":9}}`,
		`{"rec":"submit","job":"job-3","spec":{"kind":"load-campaign","mode":2,"replayer":`+zeroReplayerJSON+
			`,"workload":"sites-notes","users":8,"cohort":65}}`,
		emptyReplaySubmit("job-4"),
	)
	var mu sync.Mutex
	var warnings []string
	j, recovered, err := OpenJournal(path, func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 4 {
		t.Fatalf("recovered %d jobs, want 4", len(recovered))
	}
	e := New(Options{Workers: 1, QueueDepth: 4, Journal: j})
	revived := e.Revive(recovered)
	e.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(revived) != 1 || len(e.Jobs()) != 1 {
		t.Fatalf("revived %d jobs (engine holds %d), want only job-4", len(revived), len(e.Jobs()))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{
		"jobs: not reviving epoch 1 job-1: parallelism 5000 out of range",
		"jobs: not reviving epoch 1 job-2: mode 9 not valid",
		"jobs: not reviving epoch 1 job-3: cohort 65 out of range",
	} {
		found := false
		for _, w := range warnings {
			found = found || strings.HasPrefix(w, want)
		}
		if !found {
			t.Errorf("no %q warning in %q", want, warnings)
		}
	}
}
