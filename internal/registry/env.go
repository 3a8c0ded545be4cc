package registry

import (
	"fmt"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/vclock"
)

// DefaultAJAXLatency is the one-way network latency for asynchronous
// loads. The Sites editor takes this long to become usable after the
// Edit click — the window in which timing errors strike (§V-B).
const DefaultAJAXLatency = 150 * time.Millisecond

// Env is one isolated simulated world: a virtual clock, an in-memory
// network, a browser, and one fresh AppState per hosted application.
// Each Env is fully isolated — fresh server state, fresh clock — which
// is what makes record-in-one-environment, replay-in-another
// meaningful.
type Env struct {
	Clock   *vclock.Clock
	Network *netsim.Network
	Browser *browser.Browser

	apps  []App
	cells map[string]*stateCell
}

// EnvOption configures NewEnv.
type EnvOption func(*envConfig)

type envConfig struct {
	registry *Registry
	apps     []App
	latency  time.Duration
}

// WithApps hosts exactly the given applications (plus any selected by
// WithRegistry) instead of the Default registry's full set. The apps
// need not be registered anywhere — an Env is its own closed world.
func WithApps(apps ...App) EnvOption {
	return func(c *envConfig) { c.apps = append(c.apps, apps...) }
}

// WithRegistry hosts every application of the given registry.
func WithRegistry(r *Registry) EnvOption {
	return func(c *envConfig) { c.registry = r }
}

// WithLatency overrides the environment's one-way network latency
// (default DefaultAJAXLatency).
func WithLatency(d time.Duration) EnvOption {
	return func(c *envConfig) { c.latency = d }
}

// NewEnv builds an isolated environment hosting the selected
// applications on a fresh network, with a browser of the given mode.
// With no options it hosts every application of the Default registry —
// the "demo world" of the paper's evaluation plus anything the process
// registered. It fails with a typed error when two selected
// applications collide on name, host, or start URL.
func NewEnv(mode browser.Mode, opts ...EnvOption) (*Env, error) {
	cfg, selected := selectApps(opts)
	if len(selected) == 0 {
		return nil, fmt.Errorf("registry: NewEnv with no applications (empty registry and no WithApps)")
	}

	clock := vclock.New()
	network := netsim.New(clock)
	network.SetLatency(cfg.latency)

	e := &Env{
		Clock:   clock,
		Network: network,
		cells:   make(map[string]*stateCell, len(selected)),
	}
	hosts := make(map[string]string, len(selected))
	urls := make(map[string]string, len(selected))
	for _, a := range selected {
		name, host, url := a.Name(), a.Host(), a.StartURL()
		if _, ok := e.cells[name]; ok {
			return nil, &DuplicateAppError{Name: name}
		}
		if owner, ok := hosts[host]; ok {
			return nil, &HostCollisionError{Host: host, App: name, Existing: owner}
		}
		if owner, ok := urls[url]; ok {
			return nil, &StartURLCollisionError{URL: url, App: name, Existing: owner}
		}
		st := a.NewState()
		if st == nil {
			return nil, fmt.Errorf("registry: app %q NewState returned nil", name)
		}
		e.host(a, &stateCell{app: a, st: st})
		hosts[host] = name
		urls[url] = name
	}

	e.Browser = browser.New(clock, network, mode)
	// The environment is the browser's world: forking the browser forks
	// the whole Env, server state included.
	e.Browser.SetWorld(e)
	return e, nil
}

// selectApps applies the options. The selected applications are the
// WithRegistry registry's (the Default registry's when no option names
// any) followed by the WithApps ones.
func selectApps(opts []EnvOption) (envConfig, []App) {
	cfg := envConfig{latency: DefaultAJAXLatency}
	for _, o := range opts {
		o(&cfg)
	}
	var selected []App
	if cfg.registry != nil {
		selected = cfg.registry.Apps()
	} else if len(cfg.apps) == 0 {
		selected = Default.Apps()
	}
	return cfg, append(selected, cfg.apps...)
}

// host adds an application to the environment. Its requests route
// through the cell (cow.go) so that, once the environment has forks,
// their pending snapshots settle before a request can mutate the state.
func (e *Env) host(a App, cell *stateCell) {
	e.apps = append(e.apps, a)
	e.cells[a.Name()] = cell
	e.Network.Register(a.Host(), &appPort{cell: cell})
}

// MustNewEnv is NewEnv panicking on error — the right call when the
// selected applications come from a registry, whose registration
// already rejected every collision NewEnv re-checks.
func MustNewEnv(mode browser.Mode, opts ...EnvOption) *Env {
	e, err := NewEnv(mode, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// Apps returns the environment's applications in hosting order.
func (e *Env) Apps() []App { return append([]App(nil), e.apps...) }

// AppNames returns the environment's application names in hosting
// order.
func (e *Env) AppNames() []string {
	names := make([]string, len(e.apps))
	for i, a := range e.apps {
		names[i] = a.Name()
	}
	return names
}

// State returns the environment's instance of the named application.
// Handing the state out settles any pending fork snapshots first, so a
// caller mutating it directly cannot leak post-fork changes into forks
// (cow.go).
func (e *Env) State(appName string) (AppState, bool) {
	cell, ok := e.cells[appName]
	if !ok {
		return nil, false
	}
	return cell.touch(), true
}

// MustState is State for oracles that know the application is hosted;
// it panics with a typed error when it is not.
func (e *Env) MustState(appName string) AppState {
	st, ok := e.State(appName)
	if !ok {
		panic(&UnknownAppError{Name: appName, Known: e.AppNames()})
	}
	return st
}

// Reset restores every hosted application to its initial server state
// by rebuilding each with its App's NewState, so a reset world is
// indistinguishable from a fresh one — same data, no sessions, and the
// same sid counter. States handed out earlier are replaced, not
// mutated: re-fetch them with State. The clock, network, and browser
// are untouched: Reset models the server side starting over, not the
// world rebooting.
func (e *Env) Reset() {
	for _, cell := range e.cells {
		cell.reset()
	}
}

// Fork deep-copies the whole environment at this instant: every hosted
// application's declared state is copied (Declarer), the network and
// clock are recreated (clock at the same virtual instant), and the
// browser — cookies, tabs, DOM, script state, pending timers and AJAX —
// is cloned onto them. The fork and the original evolve independently
// from here. Fork fails with *NotDeclaredError when a hosted
// application's state does not implement Declarer; callers fall back to
// replaying the trace prefix in a fresh environment.
func (e *Env) Fork() (*Env, error) {
	ne, _, err := e.fork()
	return ne, err
}

// ForkBrowser implements browser.World: it forks the environment and
// returns the browser-level fork (with its tab/frame mapping).
func (e *Env) ForkBrowser(b *browser.Browser) (*browser.Fork, error) {
	if b != e.Browser {
		return nil, fmt.Errorf("registry: ForkBrowser called with a browser this environment does not own")
	}
	_, fk, err := e.fork()
	return fk, err
}

func (e *Env) fork() (*Env, *browser.Fork, error) {
	clock := vclock.NewAt(e.Clock.Now())
	network := netsim.New(clock)
	network.SetLatency(e.Network.Latency())

	ne := &Env{
		Clock:   clock,
		Network: network,
		cells:   make(map[string]*stateCell, len(e.cells)),
	}
	for _, a := range e.apps {
		parent := e.cells[a.Name()]
		if err := parent.forkable(); err != nil {
			return nil, nil, err
		}
		// Copy-on-write: the snapshot is deferred until either world
		// touches the application again (cow.go). Applications the
		// campaign never exercises are never copied at all.
		cell := &stateCell{app: a}
		cell.dependOn(parent)
		ne.host(a, cell)
	}

	fk, err := e.Browser.CloneOnto(clock, network)
	if err != nil {
		return nil, nil, err
	}
	ne.Browser = fk.Browser
	ne.Browser.SetWorld(ne)
	return ne, fk, nil
}

// BrowserFactory returns a campaign EnvFactory: each call builds a
// fresh isolated environment (per the options) and hands out its
// browser. It panics on an invalid app selection at construction time —
// before any campaign starts — by building one throwaway environment
// eagerly.
func BrowserFactory(mode browser.Mode, opts ...EnvOption) func() *browser.Browser {
	MustNewEnv(mode, opts...) // validate the selection once, loudly
	return func() *browser.Browser { return MustNewEnv(mode, opts...).Browser }
}
