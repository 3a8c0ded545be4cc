package warr

import (
	"io"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/serve"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// This file is the open half of the environment API: the pluggable
// application/scenario registry. WaRR's claim is recording *any* AJAX
// web application and replaying it faithfully elsewhere — so the set of
// applications an environment hosts, and the set of workloads the tools
// accept by name, are extension points, not a closed world. Implement
// App (typically on the webapp server framework exported below),
// register it with RegisterApp, build a Scenario for it with the
// ScenarioBuilder, register that with RegisterScenario — and the new
// workload is recordable by warr-record, replayable by warr-replay,
// campaign-testable by weberr, and eligible for the golden-trace
// corpus, with no changes to this module. See apps/calendar for a
// complete plugin built purely on this surface, and examples/custom-app
// for a walkthrough.

// ---- application plugins ----

// App is one pluggable web application: its registered name, the
// network host it serves, the page recorded sessions start on, and a
// factory producing fresh per-environment server state. Implementations
// must keep all mutable state inside the AppState values NewState
// returns, so two environments never observe each other.
type App = registry.App

// AppState is one environment's instance of an application: mutable
// server state and the handler serving it. Env.Reset rebuilds states
// with NewState, so a state needs no reset of its own.
type AppState = registry.AppState

// AppDeclarer is the optional declared-state capability of an
// AppState: Declare returns the state's lock, a pointer to a plain
// JSON-tagged struct holding every mutable field, and the WebServer
// whose sessions belong to the state. From that one declaration the
// registry derives the in-memory fork (Env.Fork, which lets campaigns
// share trace prefixes instead of re-executing them), the canonical
// environment image tests compare worlds by, and the reset. States
// without it still work everywhere; forking falls back to
// fresh-environment prefix replay, the flat campaign path.
type AppDeclarer = registry.Declarer

// NotDeclaredError reports a fork or image of an application whose
// state does not implement AppDeclarer, or declares a field the
// derived copy cannot carry (pointer, interface, func or chan).
type NotDeclaredError = registry.NotDeclaredError

// AppCoverageSource is the optional coverage capability of an AppState:
// states implementing it report their semantic state transitions as
// stable marks, which the error-model fuzzing campaign folds into its
// replay-coverage fingerprint. CoverageMarks must be a pure function of
// the state — forked worlds report the same marks.
// States without it still fuzz; candidate dedup just degrades to the
// trace-digest lane (weberr -list shows which apps implement it).
type AppCoverageSource = registry.CoverageSource

// AppRegistry maps names to App plugins and scenario factories; the
// tools resolve applications and workloads through it.
type AppRegistry = registry.Registry

// NewAppRegistry returns an empty registry, for worlds assembled
// explicitly instead of through the process-wide default.
func NewAppRegistry() *AppRegistry { return registry.New() }

// RegisterApp adds an application plugin to the default registry, the
// one NewDemoEnv and the command-line tools use. It fails with a typed
// error (*DuplicateAppError, *HostCollisionError,
// *StartURLCollisionError) on a collision with a registered app.
func RegisterApp(a App) error { return registry.RegisterApp(a) }

// MustRegisterApp is RegisterApp for init-time self-registration.
func MustRegisterApp(a App) { registry.MustRegisterApp(a) }

// LookupApp resolves a registered application by name; unknown names
// fail with *UnknownAppError.
func LookupApp(name string) (App, error) { return registry.LookupApp(name) }

// RegisteredApps lists the default registry's applications in
// registration order.
func RegisteredApps() []App { return registry.Apps() }

// AppNames lists the default registry's application names in
// registration order.
func AppNames() []string { return registry.AppNames() }

// RegisterScenario adds a named workload to the default registry; the
// name is what warr-record, warr-replay, and weberr accept.
func RegisterScenario(name string, f func() Scenario) error {
	return registry.RegisterScenario(name, f)
}

// MustRegisterScenario is RegisterScenario for init-time
// self-registration.
func MustRegisterScenario(name string, f func() Scenario) {
	registry.MustRegisterScenario(name, f)
}

// LookupScenario builds the named scenario from the default registry;
// unknown names fail with *UnknownScenarioError.
func LookupScenario(name string) (Scenario, error) { return registry.LookupScenario(name) }

// Typed registration and lookup errors.
type (
	DuplicateAppError      = registry.DuplicateAppError
	DuplicateScenarioError = registry.DuplicateScenarioError
	HostCollisionError     = registry.HostCollisionError
	StartURLCollisionError = registry.StartURLCollisionError
	UnknownAppError        = registry.UnknownAppError
	UnknownScenarioError   = registry.UnknownScenarioError
)

// ---- environments over the registry ----

// Env is one isolated simulated world: a virtual clock, an in-memory
// network, a browser, and one fresh AppState per hosted application.
// DemoEnv is the same type under its historical name.
type Env = registry.Env

// EnvOption configures NewEnv.
type EnvOption = registry.EnvOption

// NewEnv builds an isolated environment hosting the selected
// applications. With no options it hosts every registered application —
// NewDemoEnv is sugar over exactly this call.
func NewEnv(mode Mode, opts ...EnvOption) (*Env, error) {
	return registry.NewEnv(mode, opts...)
}

// MustNewEnv is NewEnv panicking on error, for selections a registry
// has already validated.
func MustNewEnv(mode Mode, opts ...EnvOption) *Env {
	return registry.MustNewEnv(mode, opts...)
}

// WithApps hosts exactly the given applications instead of the full
// default registry.
func WithApps(apps ...App) EnvOption { return registry.WithApps(apps...) }

// WithRegistry hosts every application of the given registry.
func WithRegistry(r *AppRegistry) EnvOption { return registry.WithRegistry(r) }

// WithLatency overrides the environment's one-way network latency.
func WithLatency(d time.Duration) EnvOption { return registry.WithLatency(d) }

// NewEnvFactory returns a campaign EnvFactory over fresh isolated
// environments built per the options — for fanning campaigns out over
// a custom application world.
func NewEnvFactory(mode Mode, opts ...EnvOption) EnvFactory {
	return registry.BrowserFactory(mode, opts...)
}

// ---- declarative scenarios ----

// ScenarioStep is one typed user action of a scenario.
type ScenarioStep = registry.Step

// Typed scenario steps, for introspection and for assembling Scenario
// values directly.
type (
	ClickStep = registry.ClickStep
	DragStep  = registry.DragStep
	TypeStep  = registry.TypeStep
	KeyStep   = registry.KeyStep
	WaitStep  = registry.WaitStep
	FuncStep  = registry.FuncStep
)

// Locator selects the element a step acts on.
type Locator = registry.Locator

// ByID locates the element with the given id attribute.
func ByID(id string) Locator { return registry.ByID(id) }

// ByName locates the element with the given name attribute.
func ByName(name string) Locator { return registry.ByName(name) }

// ByTagText locates the element of the given tag whose trimmed text
// equals text.
func ByTagText(tag, text string) Locator { return registry.ByTagText(tag, text) }

// FindElement returns the first element the locator matches in any of
// the tab's frames, or nil — the lookup scenario oracles use.
func FindElement(tab *Tab, l Locator) *dom.Node { return registry.Find(tab, l) }

// Scenario pacing defaults: ActionGap is a patient user's think time
// between actions (longer than the demo AJAX latency), KeyGap the time
// between keystrokes.
const (
	ActionGap = registry.ActionGap
	KeyGap    = registry.KeyGap
)

// ScenarioBuilder assembles a Scenario declaratively: each call appends
// one typed step, Verify installs the oracle, Build returns the
// finished value.
type ScenarioBuilder = registry.ScenarioBuilder

// NewScenario starts a builder for a session against app, starting at
// the app's start URL.
func NewScenario(app App, name string) *ScenarioBuilder {
	return registry.NewScenario(app, name)
}

// NewScenarioAt starts a builder with an explicit application name and
// start URL — for parameterized workloads like the per-engine search
// scenario.
func NewScenarioAt(appName, name, startURL string) *ScenarioBuilder {
	return registry.NewScenarioAt(appName, name, startURL)
}

// ---- the webapp server framework ----
//
// The simulated substrate an App serves on: an HTTP-like request cycle
// over the in-memory network, with routing, cookie-based sessions, and
// page rendering. These are the same pieces the five demo applications
// are built from.

// WebRequest is one HTTP-like request; handlers read its parsed Form.
type WebRequest = netsim.Request

// WebResponse is an HTTP-like response.
type WebResponse = netsim.Response

// WebHandler serves requests for one registered host.
type WebHandler = netsim.Handler

// WebServer is a WebHandler with routing and cookie-based sessions —
// the application server framework the demo apps use.
type WebServer = webapp.Server

// WebSession is per-user server-side state, keyed by the sid cookie.
type WebSession = webapp.Session

// WebPageFunc handles one WebServer route.
type WebPageFunc = webapp.PageFunc

// NewWebServer returns an empty application server.
func NewWebServer(name string) *WebServer { return webapp.NewServer(name) }

// WebPage renders a complete HTML page with optional script code.
func WebPage(title, bodyHTML, scriptSrc string) string {
	return webapp.Page(title, bodyHTML, scriptSrc)
}

// HTMLEscape escapes text for safe inclusion in HTML content.
func HTMLEscape(s string) string { return webapp.HTMLEscape(s) }

// WebOK returns a 200 text/html response.
func WebOK(body string) *WebResponse { return netsim.OK(body) }

// WebRedirect returns a redirect to the given location.
func WebRedirect(location string) *WebResponse { return webapp.Redirect(location) }

// WebNotFound returns a 404 response.
func WebNotFound() *WebResponse { return netsim.NotFound() }

// KeyEnter is the named key scenarios commit edits with (builder
// Press/PressEnter).
const KeyEnter = browser.KeyEnter

// ---- the job engine: replay as a service ----
//
// Every face of this module — the one-shot CLIs and the warr-serve
// daemon — executes through one shared job engine: typed jobs over the
// session and campaign APIs, a bounded queue with backpressure, a
// per-job event bus, cancel with causes, and resume built on session
// forking. This is the programmatic surface of that engine; warr-serve
// is the same engine behind HTTP (see NewJobServer).

// Job is one unit of engine work: its spec, lifecycle state, event bus,
// and — once finished — its results.
type Job = jobs.Job

// JobSpec is a typed job specification.
type JobSpec = jobs.Spec

// JobKind selects what a job does with its trace.
type JobKind = jobs.Kind

// Job kinds: one-shot replay (optionally replicated), the WebErr
// navigation and timing campaigns, AUsER report ingestion
// (replay → minimize → classify), the coverage-guided error-model
// fuzzing campaign, and the multi-user shared-world load campaign.
const (
	JobReplay             = jobs.KindReplay
	JobNavigationCampaign = jobs.KindNavigationCampaign
	JobTimingCampaign     = jobs.KindTimingCampaign
	JobReport             = jobs.KindReport
	JobFuzzCampaign       = jobs.KindFuzzCampaign
	JobLoadCampaign       = jobs.KindLoadCampaign
)

// ParseJobKind resolves a job kind name; unknown names return 0.
func ParseJobKind(s string) JobKind {
	var k JobKind
	_ = k.UnmarshalText([]byte(s))
	return k
}

// JobState is a job's lifecycle position: queued → running → one of
// done / failed / cancelled. A cancelled job may be resumed.
type JobState = jobs.State

// Job states.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobDone      = jobs.StateDone
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// JobClassification is the stored outcome of AUsER report ingestion.
type JobClassification = jobs.Classification

// JobEngine runs jobs over a bounded queue and a worker pool.
type JobEngine = jobs.Engine

// JobEngineOptions configure NewJobEngine.
type JobEngineOptions = jobs.Options

// NewJobEngine starts an engine: the worker pool is live and Submit may
// be called immediately. Call Drain (or Close) to shut it down.
func NewJobEngine(opts JobEngineOptions) *JobEngine { return jobs.New(opts) }

// Engine errors: queue backpressure, drain in progress, unknown ids,
// invalid cancel/resume transitions, and the drain checkpoint cause.
var (
	ErrJobQueueFull  = jobs.ErrQueueFull
	ErrJobsDraining  = jobs.ErrDraining
	ErrUnknownJob    = jobs.ErrUnknownJob
	ErrJobFinished   = jobs.ErrJobFinished
	ErrNotResumable  = jobs.ErrNotResumable
	CauseJobsDrained = jobs.CauseDrained
)

// JobEvent is one entry in a job's event stream; JobEventBus is the
// per-job stream itself — full history first, then live events, for any
// number of subscribers.
type (
	JobEvent    = jobs.Event
	JobEventBus = jobs.Bus
)

// The concrete event shapes: per-step replay progress (the same
// JSON-lines format warr-replay -json has always printed), per-replica
// summaries, job state transitions, per-trace campaign outcomes,
// campaign reports, and AUsER ingestion classifications.
type (
	StepEvent           = jobs.StepEvent
	SummaryEvent        = jobs.SummaryEvent
	SkippedEvent        = jobs.SkippedEvent
	JobStateEvent       = jobs.StateEvent
	OutcomeEvent        = jobs.OutcomeEvent
	CampaignReportEvent = jobs.ReportEvent
	FuzzProgressEvent   = jobs.FuzzEvent
	LoadProgressEvent   = jobs.LoadEvent
	ClassificationEvent = jobs.ClassificationEvent
)

// EventEncoder writes events as JSON lines — the one encoder behind CLI
// stdout, SSE frames, and job logs.
type EventEncoder = jobs.Encoder

// NewEventEncoder returns an encoder writing JSON event lines to w.
func NewEventEncoder(w io.Writer) *EventEncoder { return jobs.NewEncoder(w) }

// EncodeJobEvent renders one event as its JSON line (trailing newline
// included).
func EncodeJobEvent(ev JobEvent) ([]byte, error) { return jobs.EncodeEvent(ev) }

// DecodeJobEvent parses one JSON event line into its typed event.
func DecodeJobEvent(line []byte) (JobEvent, error) { return jobs.DecodeEvent(line) }

// ---- the HTTP face ----

// JobServer is the HTTP face of a job engine — the warr-serve daemon's
// handler: trace upload, job submission with backpressure, SSE event
// streaming, cancel/resume, AUsER report ingestion, and metrics.
type JobServer = serve.Server

// JobServerOptions configure NewJobServer.
type JobServerOptions = serve.Options

// NewJobServer builds an HTTP server over a job engine (a default
// engine when opts.Engine is nil).
func NewJobServer(opts JobServerOptions) *JobServer { return serve.New(opts) }

// JobRequest is the POST /api/jobs wire format.
type JobRequest = serve.JobRequest

// DecodeJobRequest parses and validates a job-submission body.
func DecodeJobRequest(data []byte) (*JobRequest, error) { return serve.DecodeJobRequest(data) }
