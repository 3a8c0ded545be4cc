package serve

// HTTP-face tests: upload → submit → SSE stream round-trips, HTTP
// cancellation producing exactly the partial result a direct context
// cancellation produces, backpressure as 503, sealed and plain AUsER
// ingestion, and — the service-parity contract — campaign findings over
// HTTP byte-identical to the direct weberr calls the one-shot CLI makes,
// on every Table II scenario.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/auser"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/core"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/trace"
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

// archiveBytes serializes a trace as a versioned archive, the wire
// format POST /api/traces accepts.
func archiveBytes(t *testing.T, sc apps.Scenario, tr command.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Scenario: sc.Name, App: sc.App, Recorder: "warr"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testServer boots a Server over its own engine behind httptest.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = jobs.New(jobs.Options{Workers: 1, QueueDepth: 8})
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Engine().Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// uploadTrace uploads an archive and returns the stored name.
func uploadTrace(t *testing.T, base string, archive []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/api/traces", "application/octet-stream", bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace upload: HTTP %d: %s", resp.StatusCode, body)
	}
	var view struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view.Name
}

// waitTerminal polls a job over HTTP until it leaves queued/running.
func waitTerminal(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var view JobView
		if code := getJSON(t, base+"/api/jobs/"+id, &view); code != http.StatusOK {
			t.Fatalf("GET job %s: HTTP %d", id, code)
		}
		if view.State != "queued" && view.State != "running" {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	Event string
	Data  []byte
}

// readSSE consumes a /events stream to completion.
func readSSE(t *testing.T, url string) []sseFrame {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Event != "" || cur.Data != nil {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return frames
}

func TestHealthzDrainingAndMetrics(t *testing.T) {
	s, ts := testServer(t, Options{})
	sc := apps.AuthenticateScenario()
	name := uploadTrace(t, ts.URL, archiveBytes(t, sc, recordScenario(t, sc)))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz said %q", body)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"warr_queue_capacity", "warr_jobs_total", "warr_engine_draining 0"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := s.Engine().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "draining" {
		t.Errorf("healthz on a draining engine said %q", body)
	}
	// Submissions now map to 503.
	resp, out := postJSON(t, ts.URL+"/api/jobs", JobRequest{Kind: "replay", Trace: name})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d: %s", resp.StatusCode, out)
	}
}

func TestTraceUploadListAndSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Options{})
	sc := apps.AuthenticateScenario()
	tr := recordScenario(t, sc)
	name := uploadTrace(t, ts.URL, archiveBytes(t, sc, tr))
	if name != sc.Name {
		t.Errorf("stored trace name %q, want scenario name %q", name, sc.Name)
	}

	var listed []struct {
		Name     string `json:"name"`
		Commands int    `json:"commands"`
	}
	if code := getJSON(t, ts.URL+"/api/traces", &listed); code != http.StatusOK {
		t.Fatalf("list traces: HTTP %d", code)
	}
	if len(listed) != 1 || listed[0].Name != name || listed[0].Commands != len(tr.Commands) {
		t.Errorf("trace listing %+v", listed)
	}

	// Garbage uploads are rejected.
	resp, err := http.Post(ts.URL+"/api/traces", "application/octet-stream", strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: HTTP %d", resp.StatusCode)
	}

	// Submission validation: malformed body, unknown kind, unknown trace.
	for _, c := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"kind":"martian","trace":"` + name + `"}`, http.StatusBadRequest},
		{`{"kind":"replay","trace":"never-uploaded"}`, http.StatusBadRequest},
		{`{"kind":"replay","trace":"` + name + `","unknownField":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("submit %s: HTTP %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	if code := getJSON(t, ts.URL+"/api/jobs/no-such-job", new(map[string]any)); code != http.StatusNotFound {
		t.Errorf("GET unknown job: HTTP %d", code)
	}
}

func TestReplayJobOverHTTPStreamsSSE(t *testing.T) {
	_, ts := testServer(t, Options{})
	sc := apps.AuthenticateScenario()
	tr := recordScenario(t, sc)
	name := uploadTrace(t, ts.URL, archiveBytes(t, sc, tr))

	resp, out := postJSON(t, ts.URL+"/api/jobs", JobRequest{Kind: "replay", Trace: name})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, out)
	}
	var created JobView
	if err := json.Unmarshal(out, &created); err != nil {
		t.Fatal(err)
	}

	// The SSE stream replays the whole history and follows to the end.
	frames := readSSE(t, ts.URL+"/api/jobs/"+created.ID+"/events")
	var steps, summaries int
	var lastState string
	for _, f := range frames {
		ev, err := jobs.DecodeEvent(f.Data)
		if err != nil {
			t.Fatalf("frame %q undecodable: %v", f.Data, err)
		}
		if ev.EventType() != f.Event {
			t.Errorf("frame event %q carries a %q payload", f.Event, ev.EventType())
		}
		// The data line is exactly the jobs encoder's line — the SSE
		// stream and the CLI's -json stdout share one encoder.
		line, err := jobs.EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSuffix(line, []byte("\n")), f.Data) {
			t.Errorf("SSE data %s is not the canonical event line %s", f.Data, line)
		}
		switch v := ev.(type) {
		case jobs.StepEvent:
			steps++
		case jobs.SummaryEvent:
			summaries++
		case jobs.StateEvent:
			lastState = v.State
		}
	}
	if steps != len(tr.Commands) || summaries != 1 {
		t.Errorf("stream carried %d steps, %d summaries; want %d, 1", steps, summaries, len(tr.Commands))
	}
	if lastState != "done" {
		t.Errorf("stream ended in state %q", lastState)
	}

	final := waitTerminal(t, ts.URL, created.ID)
	if final.State != "done" || final.Played != len(tr.Commands) || final.Failed != 0 {
		t.Errorf("final job view %+v", final)
	}
}

// TestHTTPCancelMatchesContextCancel is the cancellation-parity
// contract: stopping a job with POST /api/jobs/{id}/cancel produces
// exactly the partial result cancelling the context of a direct session
// produces — same steps, same counts.
func TestHTTPCancelMatchesContextCancel(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	const stopAfter = 2

	// Direct path: plain session, context cancelled after step 2.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	direct, err := replayer.New(registry.BrowserFactory(browser.DeveloperMode)(), replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				if step.Index == stopAfter {
					cancel(errors.New("stop"))
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

	// HTTP path: the same hook issues the cancel over the API. The hook
	// blocks the replay goroutine until the POST returns, so the cancel
	// lands at the same command boundary. It fires once: the resumed job
	// below re-runs the spec, hooks included.
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 2})
	_, ts := testServer(t, Options{Engine: engine})
	var jobID string
	var mu sync.Mutex
	var cancelled atomic.Bool
	spec := jobs.Spec{Kind: jobs.KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			AfterStep: func(step replayer.Step, tab *browser.Tab) {
				if step.Index != stopAfter || !cancelled.CompareAndSwap(false, true) {
					return
				}
				mu.Lock()
				id := jobID
				mu.Unlock()
				resp, err := http.Post(ts.URL+"/api/jobs/"+id+"/cancel", "application/json", nil)
				if err != nil {
					t.Errorf("cancel POST: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("cancel POST: HTTP %d", resp.StatusCode)
				}
			},
		}},
	}}
	mu.Lock()
	job, err := engine.Submit(spec)
	jobID = job.ID
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	if err := job.Wait(wctx); err != nil {
		t.Fatal(err)
	}

	view := waitTerminal(t, ts.URL, job.ID)
	if view.State != "cancelled" {
		t.Fatalf("job state %q, want cancelled", view.State)
	}
	res := job.Result()
	if res.Played != directRes.Played || res.Failed != directRes.Failed || len(res.Steps) != len(directRes.Steps) {
		t.Fatalf("HTTP-cancelled partial (%d/%d, %d steps) diverged from context-cancelled partial (%d/%d, %d steps)",
			res.Played, res.Failed, len(res.Steps),
			directRes.Played, directRes.Failed, len(directRes.Steps))
	}
	for i := range res.Steps {
		if res.Steps[i].Status != directRes.Steps[i].Status {
			t.Errorf("step %d: HTTP %v, direct %v", i, res.Steps[i].Status, directRes.Steps[i].Status)
		}
	}

	// Cancelling it again: 409, the job is finished.
	resp, err := http.Post(ts.URL+"/api/jobs/"+job.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel: HTTP %d, want 409", resp.StatusCode)
	}

	// Resume over HTTP: a new job that completes the replay.
	resp, err = http.Post(ts.URL+"/api/jobs/"+job.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var resumed JobView
	if err := json.NewDecoder(resp.Body).Decode(&resumed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, resumed.ID)
	if final.State != "done" || final.Played != len(tr.Commands) {
		t.Errorf("resumed job %+v, want done with %d played", final, len(tr.Commands))
	}
	// Resuming a done job: 409.
	resp, err = http.Post(ts.URL+"/api/jobs/"+resumed.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("resume of a done job: HTTP %d, want 409", resp.StatusCode)
	}
}

func TestQueueBackpressureMapsTo503(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1})
	_, ts := testServer(t, Options{Engine: engine})
	name := uploadTrace(t, ts.URL, archiveBytes(t, apps.AuthenticateScenario(), tr))

	// Occupy the worker with a blocked job, then fill the queue.
	release := make(chan struct{})
	var once sync.Once
	blocked, err := engine.Submit(jobs.Spec{Kind: jobs.KindReplay, Trace: tr, Replayer: replayer.Options{
		Hooks: []replayer.Hooks{{
			BeforeStep: func(idx int, cmd command.Command, tab *browser.Tab) {
				once.Do(func() { <-release })
			},
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for blocked.State() == jobs.StateQueued {
		time.Sleep(time.Millisecond)
	}
	resp, out := postJSON(t, ts.URL+"/api/jobs", JobRequest{Kind: "replay", Trace: name})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: HTTP %d: %s", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/api/jobs", JobRequest{Kind: "replay", Trace: name})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on a full queue: HTTP %d: %s — backpressure must be 503", resp.StatusCode, out)
	}
	close(release)
}

func TestReportIngestionSealedAndPlain(t *testing.T) {
	// Record the Sites timing bug the way cmd/auser does.
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
	report, err := auser.New("save did nothing", rec.Trace(), tab, auser.Options{})
	if err != nil {
		t.Fatal(err)
	}

	key, err := auser.GenerateDeveloperKey(2048)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Options{DeveloperKey: key})

	// Sealed envelope: opened with the developer key, job enqueued.
	envelope, err := auser.Seal(report, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := envelope.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/reports", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	var created JobView
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Kind != "report" {
		t.Fatalf("sealed ingestion: HTTP %d, job %+v", resp.StatusCode, created)
	}
	final := waitTerminal(t, ts.URL, created.ID)
	if final.State != "done" || final.Verdict != "console-error" {
		t.Errorf("sealed ingestion finished %+v, want done with console-error verdict", final)
	}

	// Plain report: accepted without the key.
	_, tsPlain := testServer(t, Options{})
	plain, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(tsPlain.URL+"/api/reports", "application/json", bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain ingestion: HTTP %d", resp.StatusCode)
	}
	final = waitTerminal(t, tsPlain.URL, created.ID)
	if final.State != "done" || final.Verdict != "console-error" {
		t.Errorf("plain ingestion finished %+v", final)
	}

	// A sealed envelope hitting a keyless server is rejected, as is junk.
	resp, err = http.Post(tsPlain.URL+"/api/reports", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sealed report on keyless server: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(tsPlain.URL+"/api/reports", "application/json", strings.NewReader(`{"Description":"no trace"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("traceless report: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestCampaignFindingsMatchWeberrCLIOnTableII is the acceptance
// contract of replay-as-a-service: on every Table II scenario, the
// navigation and timing campaign findings produced through warr-serve's
// HTTP API are byte-identical to the findings the direct weberr calls
// (the one-shot CLI path) produce.
func TestCampaignFindingsMatchWeberrCLIOnTableII(t *testing.T) {
	for _, sc := range apps.TableIIScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			tr := recordScenario(t, sc)
			fresh := registry.BrowserFactory(browser.DeveloperMode)

			// The one-shot path, exactly as cmd/weberr wires it.
			tree, err := weberr.InferTaskTree(fresh, tr)
			if err != nil {
				t.Fatal(err)
			}
			g := weberr.FromTaskTree(tree)
			directNav := weberr.RunNavigationCampaign(fresh, g, weberr.CampaignOptions{})
			directTim := weberr.RunTimingCampaign(fresh, tr, weberr.CampaignOptions{})

			// The service path.
			_, ts := testServer(t, Options{})
			name := uploadTrace(t, ts.URL, archiveBytes(t, sc, tr))
			for _, c := range []struct {
				kind   string
				direct *weberr.Report
			}{
				{"navigation-campaign", directNav},
				{"timing-campaign", directTim},
			} {
				resp, out := postJSON(t, ts.URL+"/api/jobs", JobRequest{Kind: c.kind, Trace: name})
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("%s submit: HTTP %d: %s", c.kind, resp.StatusCode, out)
				}
				var created JobView
				if err := json.Unmarshal(out, &created); err != nil {
					t.Fatal(err)
				}
				final := waitTerminal(t, ts.URL, created.ID)
				if final.State != "done" {
					t.Fatalf("%s ended %s: %s", c.kind, final.State, final.Error)
				}

				// Pull the report off the SSE stream — what a service
				// client sees — and compare byte-for-byte against the
				// direct report rendered through the same event shape.
				var served *jobs.ReportEvent
				for _, f := range readSSE(t, ts.URL+"/api/jobs/"+created.ID+"/events") {
					if f.Event != "report" {
						continue
					}
					ev, err := jobs.DecodeEvent(f.Data)
					if err != nil {
						t.Fatal(err)
					}
					rep := ev.(jobs.ReportEvent)
					served = &rep
				}
				if served == nil {
					t.Fatalf("%s stream carried no report event", c.kind)
				}
				var wantFindings []jobs.FindingRecord
				for _, f := range c.direct.Findings {
					wantFindings = append(wantFindings, jobs.FindingRecord{
						Injection: f.Injection.String(),
						Observed:  f.Observed.Error(),
					})
				}
				got, err := json.Marshal(served.Findings)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(wantFindings)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s findings over HTTP diverged from the one-shot weberr path:\n got %s\nwant %s",
						c.kind, got, want)
				}
				if served.Generated != c.direct.Generated {
					t.Errorf("%s generated %d over HTTP, %d direct", c.kind, served.Generated, c.direct.Generated)
				}
				if len(served.Findings) != len(c.direct.Findings) {
					t.Errorf("%s finding count %d over HTTP, %d direct", c.kind, len(served.Findings), len(c.direct.Findings))
				}
			}
		})
	}
}

func TestJobListOrdering(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 8})
	_, ts := testServer(t, Options{Engine: engine})
	name := uploadTrace(t, ts.URL, archiveBytes(t, apps.AuthenticateScenario(), tr))
	var ids []string
	for i := 0; i < 3; i++ {
		resp, out := postJSON(t, ts.URL+"/api/jobs", JobRequest{Kind: "replay", Trace: name, Pacing: "none"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, out)
		}
		var v JobView
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
	}
	var listed []JobView
	if code := getJSON(t, ts.URL+"/api/jobs", &listed); code != http.StatusOK {
		t.Fatalf("list jobs: HTTP %d", code)
	}
	if len(listed) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(listed), len(ids))
	}
	for i, v := range listed {
		if v.ID != ids[i] {
			t.Errorf("listing position %d holds %s, want %s (submission order)", i, v.ID, ids[i])
		}
	}
}

// TestFuzzCampaignJobOverHTTP drives a fuzz campaign as a first-class
// service job: submit with a budget and seed, watch the SSE stream's
// fuzz-progress lane, and check the final report. Validation bounds on
// the budget are exercised alongside.
func TestFuzzCampaignJobOverHTTP(t *testing.T) {
	_, ts := testServer(t, Options{})
	sc := apps.EditSiteScenario()
	tr := recordScenario(t, sc)
	name := uploadTrace(t, ts.URL, archiveBytes(t, sc, tr))

	// Budget validation: negative and absurd budgets are rejected
	// before a job is created.
	for _, body := range []string{
		`{"kind":"fuzz-campaign","trace":"` + name + `","fuzzBudget":-1}`,
		`{"kind":"fuzz-campaign","trace":"` + name + `","fuzzBudget":1000000}`,
	} {
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	resp, out := postJSON(t, ts.URL+"/api/jobs", JobRequest{
		Kind: "fuzz-campaign", Trace: name, FuzzBudget: 24, FuzzSeed: 1,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, out)
	}
	var created JobView
	if err := json.Unmarshal(out, &created); err != nil {
		t.Fatal(err)
	}
	if created.Kind != "fuzz-campaign" {
		t.Errorf("created job kind %q", created.Kind)
	}

	frames := readSSE(t, ts.URL+"/api/jobs/"+created.ID+"/events")
	var fuzzEvents, outcomes int
	var last jobs.FuzzEvent
	var report *jobs.ReportEvent
	for _, f := range frames {
		ev, err := jobs.DecodeEvent(f.Data)
		if err != nil {
			t.Fatalf("frame %q undecodable: %v", f.Data, err)
		}
		switch v := ev.(type) {
		case jobs.FuzzEvent:
			fuzzEvents++
			if v.Spent < last.Spent || v.Generated < last.Generated {
				t.Errorf("fuzz progress went backwards: %+v after %+v", v, last)
			}
			last = v
		case jobs.OutcomeEvent:
			outcomes++
			if v.Injection == "" || !strings.HasPrefix(v.Injection, "fuzz: ") {
				t.Errorf("outcome injection %q does not name its program", v.Injection)
			}
			if v.Status == "replayed" && v.Coverage == "" {
				t.Errorf("replayed outcome %d carries no coverage fingerprint", v.Index)
			}
		case jobs.ReportEvent:
			report = &v
		}
	}
	if fuzzEvents < 2 { // at least one per-batch event plus the final one
		t.Fatalf("stream carried %d fuzz events, want >= 2", fuzzEvents)
	}
	if last.Budget != 24 || last.Spent > 24 {
		t.Errorf("final fuzz event budget=%d spent=%d", last.Budget, last.Spent)
	}
	if outcomes != last.Generated-last.Deduped {
		t.Errorf("stream carried %d outcomes; stats say %d scheduled or pruned",
			outcomes, last.Generated-last.Deduped)
	}
	if report == nil || report.Campaign != "fuzz" {
		t.Fatalf("stream carried no fuzz report: %+v", report)
	}
	if len(report.Findings) == 0 {
		t.Error("fuzz campaign on edit-site found nothing; the §V-C timing bug should fall out of the pace seeds")
	}
	for _, f := range report.Findings {
		if !strings.HasPrefix(f.Injection, "fuzz: ") {
			t.Errorf("finding injection %q not in fuzz form", f.Injection)
		}
	}

	final := waitTerminal(t, ts.URL, created.ID)
	if final.State != "done" || final.Findings != len(report.Findings) {
		t.Errorf("final job view %+v, want done with %d findings", final, len(report.Findings))
	}
}
