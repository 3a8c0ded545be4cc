// Package registry is the pluggable application/scenario registry
// behind WaRR's environment API. The paper's value proposition is
// recording *any* AJAX web application and replaying it faithfully
// elsewhere (§III); the registry is what keeps the environment an open
// world: a web application is an App plugin (name, host, start URL, and
// a factory for fresh per-environment server state), a workload is a
// Scenario registered under a command-line name, and every tool — the
// recorder, the replayer, WebErr campaigns, the golden-trace corpus —
// resolves both through a Registry instead of a closed, hard-coded set.
//
// The five applications of the paper's evaluation register themselves
// into the Default registry from internal/apps; external applications
// do the same through the public warr.RegisterApp / warr.RegisterScenario
// surface, after which they are recordable by warr-record, replayable
// by warr-replay, and campaign-testable by weberr with no changes to
// this module.
package registry

import (
	"fmt"
	"strings"
	"sync"

	"github.com/dslab-epfl/warr/internal/netsim"
)

// App is one pluggable web application: the blueprint every simulated
// environment instantiates. Implementations must be safe to share —
// all per-environment mutable state belongs in the AppState values
// NewState returns, so that two environments hosting the same App never
// observe each other.
type App interface {
	// Name identifies the application ("Google Sites", "Calendar").
	// It is the key scenarios and oracles resolve the app's state by.
	Name() string
	// Host is the network host the application serves ("sites.test").
	// Prefix it with "https://" semantics by choosing the start URL
	// scheme; the host itself is scheme-less.
	Host() string
	// StartURL is the page a recorded session against this application
	// starts on ("http://sites.test/").
	StartURL() string
	// NewState creates fresh, isolated server state for one
	// environment and is called once per NewEnv.
	NewState() AppState
}

// AppState is one environment's instance of an application: its mutable
// server state plus the handler serving it. A state that also declares
// its mutable fields (Declarer) makes its environment forkable.
type AppState interface {
	// Handler serves the application's requests.
	Handler() netsim.Handler
}

// CoverageSource is the optional coverage capability of an AppState:
// the per-app state-transition lane of the replay coverage signal.
// CoverageMarks derives a set of 64-bit marks from the current server
// state — one mark per distinct observable fact (a stored page, a sent
// mail, a served query, a bucketed counter). Marks must be a pure
// function of the state: a forked world reports the same marks as the
// original, and no history beyond what the state
// itself records is required.
//
// States without a CoverageSource still fuzz fine — their campaigns
// fall back to digest-only dedup plus the DOM/event lanes of the
// coverage fingerprint; `weberr -list` surfaces which apps degrade.
type CoverageSource interface {
	CoverageMarks() []uint64
}

// SessionCoverageSource is the optional per-session coverage lane of
// an AppState. Where CoverageMarks hashes what the application stores,
// SessionCoverageMarks hashes WHO the application knows: one mark per
// live server-side session, covering its id and values. In a
// single-user world the lane is one mark that moves with that user's
// session; in a shared multi-user world it separates cross-user
// interference (another session's values changed) from single-user
// novelty, which is exactly the distinction the interleaving
// explorer's coverage bitmap needs.
type SessionCoverageSource interface {
	SessionCoverageMarks() []uint64
}

// HasCoverageMarks probes whether an application's states implement
// CoverageSource, by building one throwaway state.
func HasCoverageMarks(a App) bool {
	if a == nil {
		return false
	}
	_, ok := a.NewState().(CoverageSource)
	return ok
}

// ---- typed registration and lookup errors ----

// DuplicateAppError reports a second registration under a taken name.
type DuplicateAppError struct{ Name string }

func (e *DuplicateAppError) Error() string {
	return fmt.Sprintf("registry: app %q is already registered", e.Name)
}

// DuplicateScenarioError reports a second registration under a taken
// scenario name.
type DuplicateScenarioError struct{ Name string }

func (e *DuplicateScenarioError) Error() string {
	return fmt.Sprintf("registry: scenario %q is already registered", e.Name)
}

// HostCollisionError reports two applications claiming one network host.
type HostCollisionError struct {
	Host string
	// App is the application being registered; Existing holds the host.
	App, Existing string
}

func (e *HostCollisionError) Error() string {
	return fmt.Sprintf("registry: app %q claims host %q, already served by %q",
		e.App, e.Host, e.Existing)
}

// StartURLCollisionError reports two applications claiming one start URL.
type StartURLCollisionError struct {
	URL string
	// App is the application being registered; Existing holds the URL.
	App, Existing string
}

func (e *StartURLCollisionError) Error() string {
	return fmt.Sprintf("registry: app %q claims start URL %q, already claimed by %q",
		e.App, e.URL, e.Existing)
}

// UnknownAppError reports a lookup of an unregistered application.
type UnknownAppError struct {
	Name string
	// Known lists the registered app names, for the error message.
	Known []string
}

func (e *UnknownAppError) Error() string {
	return fmt.Sprintf("registry: unknown app %q (registered: %s)",
		e.Name, joinOrNone(e.Known))
}

// UnknownScenarioError reports a lookup of an unregistered scenario.
type UnknownScenarioError struct {
	Name string
	// Known lists the registered scenario names, for the error message.
	Known []string
}

func (e *UnknownScenarioError) Error() string {
	return fmt.Sprintf("registry: unknown scenario %q (registered: %s)",
		e.Name, joinOrNone(e.Known))
}

func joinOrNone(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// ---- the registry ----

// ScenarioFactory builds a fresh Scenario value; scenarios are
// registered as factories so every caller gets independent closures.
type ScenarioFactory func() Scenario

// Registry maps names to App plugins and ScenarioFactory values. The
// zero value is not usable; call New. All methods are safe for
// concurrent use.
type Registry struct {
	mu            sync.RWMutex
	apps          map[string]App
	appOrder      []string
	hosts         map[string]string // host -> app name
	startURLs     map[string]string // start URL -> app name
	scenarios     map[string]ScenarioFactory
	scenarioOrder []string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		apps:      make(map[string]App),
		hosts:     make(map[string]string),
		startURLs: make(map[string]string),
		scenarios: make(map[string]ScenarioFactory),
	}
}

// RegisterApp adds an application plugin. It fails with a typed error
// when the name, host, or start URL is empty or collides with an
// already-registered application.
func (r *Registry) RegisterApp(a App) error {
	if a == nil {
		return fmt.Errorf("registry: RegisterApp(nil)")
	}
	name, host, url := a.Name(), a.Host(), a.StartURL()
	switch {
	case name == "":
		return fmt.Errorf("registry: app has empty name")
	case host == "":
		return fmt.Errorf("registry: app %q has empty host", name)
	case url == "":
		return fmt.Errorf("registry: app %q has empty start URL", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.apps[name]; ok {
		return &DuplicateAppError{Name: name}
	}
	if owner, ok := r.hosts[host]; ok {
		return &HostCollisionError{Host: host, App: name, Existing: owner}
	}
	if owner, ok := r.startURLs[url]; ok {
		return &StartURLCollisionError{URL: url, App: name, Existing: owner}
	}
	r.apps[name] = a
	r.appOrder = append(r.appOrder, name)
	r.hosts[host] = name
	r.startURLs[url] = name
	return nil
}

// MustRegisterApp is RegisterApp for init-time self-registration: a
// collision is a programming error, so it panics.
func (r *Registry) MustRegisterApp(a App) {
	if err := r.RegisterApp(a); err != nil {
		panic(err)
	}
}

// App resolves a registered application by name.
func (r *Registry) App(name string) (App, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.apps[name]
	if !ok {
		return nil, &UnknownAppError{Name: name, Known: append([]string(nil), r.appOrder...)}
	}
	return a, nil
}

// Apps returns the registered applications in registration order.
func (r *Registry) Apps() []App {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]App, len(r.appOrder))
	for i, name := range r.appOrder {
		out[i] = r.apps[name]
	}
	return out
}

// AppNames returns the registered application names in registration
// order.
func (r *Registry) AppNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.appOrder...)
}

// RegisterScenario adds a named workload. The name is what warr-record,
// warr-replay, and weberr accept on the command line.
func (r *Registry) RegisterScenario(name string, f ScenarioFactory) error {
	if name == "" {
		return fmt.Errorf("registry: scenario has empty name")
	}
	if f == nil {
		return fmt.Errorf("registry: scenario %q has nil factory", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.scenarios[name]; ok {
		return &DuplicateScenarioError{Name: name}
	}
	r.scenarios[name] = f
	r.scenarioOrder = append(r.scenarioOrder, name)
	return nil
}

// MustRegisterScenario is RegisterScenario for init-time
// self-registration.
func (r *Registry) MustRegisterScenario(name string, f ScenarioFactory) {
	if err := r.RegisterScenario(name, f); err != nil {
		panic(err)
	}
}

// Scenario builds a fresh instance of the named scenario. An
// unregistered name fails with *UnknownScenarioError — a typed error,
// never a nil-function panic.
func (r *Registry) Scenario(name string) (Scenario, error) {
	r.mu.RLock()
	f, ok := r.scenarios[name]
	known := append([]string(nil), r.scenarioOrder...)
	r.mu.RUnlock()
	if !ok {
		return Scenario{}, &UnknownScenarioError{Name: name, Known: known}
	}
	return f(), nil
}

// ScenarioNames returns the registered scenario names in registration
// order.
func (r *Registry) ScenarioNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.scenarioOrder...)
}

// ---- the default registry ----

// Default is the process-wide registry. The five paper applications
// self-register here from internal/apps; external applications do the
// same through the public API.
var Default = New()

// RegisterApp registers an application in the Default registry.
func RegisterApp(a App) error { return Default.RegisterApp(a) }

// MustRegisterApp registers an application in the Default registry,
// panicking on collision.
func MustRegisterApp(a App) { Default.MustRegisterApp(a) }

// LookupApp resolves an application in the Default registry.
func LookupApp(name string) (App, error) { return Default.App(name) }

// Apps lists the Default registry's applications in registration order.
func Apps() []App { return Default.Apps() }

// AppNames lists the Default registry's application names.
func AppNames() []string { return Default.AppNames() }

// RegisterScenario registers a workload in the Default registry.
func RegisterScenario(name string, f ScenarioFactory) error {
	return Default.RegisterScenario(name, f)
}

// MustRegisterScenario registers a workload in the Default registry,
// panicking on collision.
func MustRegisterScenario(name string, f ScenarioFactory) {
	Default.MustRegisterScenario(name, f)
}

// LookupScenario builds the named scenario from the Default registry.
func LookupScenario(name string) (Scenario, error) { return Default.Scenario(name) }

// ScenarioNames lists the Default registry's scenario names.
func ScenarioNames() []string { return Default.ScenarioNames() }
