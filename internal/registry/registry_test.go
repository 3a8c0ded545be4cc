package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// fakeApp is a minimal plugin for registry tests: a one-page site whose
// declared state counts the requests it served.
type fakeApp struct {
	name, host, url string
}

func (a fakeApp) Name() string     { return a.name }
func (a fakeApp) Host() string     { return a.host }
func (a fakeApp) StartURL() string { return a.url }
func (a fakeApp) NewState() AppState {
	s := &fakeState{srv: webapp.NewServer(a.name)}
	s.srv.Handle("/", func(*netsim.Request, *webapp.Session) *netsim.Response {
		s.mu.Lock()
		s.data.Hits++
		s.mu.Unlock()
		return netsim.OK(fmt.Sprintf(
			"<html><head><title>%s</title></head><body><div id=\"who\">%s</div></body></html>",
			a.name, a.name))
	})
	return s
}

type fakeState struct {
	srv *webapp.Server

	mu   sync.Mutex
	data struct {
		Hits int `json:"hits"`
	}
}

func (s *fakeState) Handler() netsim.Handler { return s.srv }

func (s *fakeState) Declare() (*sync.Mutex, any, *webapp.Server) { return &s.mu, &s.data, s.srv }

func (s *fakeState) Hits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data.Hits
}

func alphaApp() fakeApp { return fakeApp{"Alpha", "alpha.test", "http://alpha.test/"} }
func betaApp() fakeApp  { return fakeApp{"Beta", "beta.test", "http://beta.test/"} }

func TestRegisterAppDuplicateName(t *testing.T) {
	r := New()
	if err := r.RegisterApp(alphaApp()); err != nil {
		t.Fatal(err)
	}
	err := r.RegisterApp(fakeApp{"Alpha", "other.test", "http://other.test/"})
	var dup *DuplicateAppError
	if !errors.As(err, &dup) {
		t.Fatalf("second registration: got %v, want *DuplicateAppError", err)
	}
	if dup.Name != "Alpha" {
		t.Errorf("error names %q", dup.Name)
	}
	// The first registration must be untouched.
	if got := r.AppNames(); len(got) != 1 || got[0] != "Alpha" {
		t.Errorf("registry after failed registration: %v", got)
	}
}

func TestRegisterAppHostCollision(t *testing.T) {
	r := New()
	if err := r.RegisterApp(alphaApp()); err != nil {
		t.Fatal(err)
	}
	err := r.RegisterApp(fakeApp{"Other", "alpha.test", "http://alpha.test/start"})
	var coll *HostCollisionError
	if !errors.As(err, &coll) {
		t.Fatalf("got %v, want *HostCollisionError", err)
	}
	if coll.Host != "alpha.test" || coll.Existing != "Alpha" || coll.App != "Other" {
		t.Errorf("collision details: %+v", coll)
	}
}

func TestRegisterAppStartURLCollision(t *testing.T) {
	r := New()
	if err := r.RegisterApp(alphaApp()); err != nil {
		t.Fatal(err)
	}
	// Distinct host, same advertised start URL: a registry cannot route
	// a recorded trace's start page to two applications.
	err := r.RegisterApp(fakeApp{"Mirror", "mirror.test", "http://alpha.test/"})
	var coll *StartURLCollisionError
	if !errors.As(err, &coll) {
		t.Fatalf("got %v, want *StartURLCollisionError", err)
	}
	if coll.URL != "http://alpha.test/" || coll.Existing != "Alpha" {
		t.Errorf("collision details: %+v", coll)
	}
}

func TestUnknownScenarioIsTypedError(t *testing.T) {
	r := New()
	if err := r.RegisterScenario("known", func() Scenario { return Scenario{Name: "known"} }); err != nil {
		t.Fatal(err)
	}
	_, err := r.Scenario("missing")
	var unknown *UnknownScenarioError
	if !errors.As(err, &unknown) {
		t.Fatalf("got %v, want *UnknownScenarioError", err)
	}
	if unknown.Name != "missing" {
		t.Errorf("error names %q", unknown.Name)
	}
	if len(unknown.Known) != 1 || unknown.Known[0] != "known" {
		t.Errorf("known list = %v", unknown.Known)
	}
}

func TestDuplicateScenarioRegistration(t *testing.T) {
	r := New()
	f := func() Scenario { return Scenario{Name: "x"} }
	if err := r.RegisterScenario("x", f); err != nil {
		t.Fatal(err)
	}
	err := r.RegisterScenario("x", f)
	var dup *DuplicateScenarioError
	if !errors.As(err, &dup) {
		t.Fatalf("got %v, want *DuplicateScenarioError", err)
	}
}

func TestUnknownAppLookup(t *testing.T) {
	r := New()
	_, err := r.App("nowhere")
	var unknown *UnknownAppError
	if !errors.As(err, &unknown) {
		t.Fatalf("got %v, want *UnknownAppError", err)
	}
}

// TestEnvHostsTwoAppsIsolated registers two applications in one Env and
// checks both serve from their own state, while a sibling Env sees
// none of the traffic.
func TestEnvHostsTwoAppsIsolated(t *testing.T) {
	env, err := NewEnv(browser.UserMode, WithApps(alphaApp(), betaApp()))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEnv(browser.UserMode, WithApps(alphaApp(), betaApp()))
	if err != nil {
		t.Fatal(err)
	}

	tab := env.Browser.NewTab()
	if err := tab.Navigate("http://alpha.test/"); err != nil {
		t.Fatal(err)
	}
	if got := tab.Title(); got != "Alpha" {
		t.Errorf("alpha page title = %q", got)
	}
	if err := tab.Navigate("http://beta.test/"); err != nil {
		t.Fatal(err)
	}
	if got := tab.Title(); got != "Beta" {
		t.Errorf("beta page title = %q", got)
	}

	alpha := env.MustState("Alpha").(*fakeState)
	beta := env.MustState("Beta").(*fakeState)
	if alpha.Hits() == 0 || beta.Hits() == 0 {
		t.Errorf("hits: alpha %d, beta %d — both apps must serve in one env",
			alpha.Hits(), beta.Hits())
	}
	if got := other.MustState("Alpha").(*fakeState).Hits(); got != 0 {
		t.Errorf("sibling env's alpha served %d requests", got)
	}

	// Reset rebuilds both apps' initial state: re-fetched states start
	// over, and the forked copy of the served world keeps its hits.
	fork, err := env.Fork()
	if err != nil {
		t.Fatal(err)
	}
	env.Reset()
	for _, name := range []string{"Alpha", "Beta"} {
		if got := env.MustState(name).(*fakeState).Hits(); got != 0 {
			t.Errorf("%s: Reset left %d hits behind", name, got)
		}
		if got := fork.MustState(name).(*fakeState).Hits(); got == 0 {
			t.Errorf("%s: Reset reached into a fork taken before it", name)
		}
	}
}

func TestNewEnvRejectsCollidingApps(t *testing.T) {
	// Collisions among explicitly selected (possibly unregistered) apps
	// must fail env construction with the same typed errors.
	_, err := NewEnv(browser.UserMode, WithApps(alphaApp(), alphaApp()))
	var dup *DuplicateAppError
	if !errors.As(err, &dup) {
		t.Fatalf("got %v, want *DuplicateAppError", err)
	}
	_, err = NewEnv(browser.UserMode, WithApps(
		alphaApp(), fakeApp{"Alias", "alpha.test", "http://alpha.test/x"}))
	var hostColl *HostCollisionError
	if !errors.As(err, &hostColl) {
		t.Fatalf("got %v, want *HostCollisionError", err)
	}
}

func TestNewEnvEmptySelection(t *testing.T) {
	if _, err := NewEnv(browser.UserMode, WithRegistry(New())); err == nil {
		t.Fatal("empty registry produced an environment")
	}
}

func TestMustStatePanicsWithTypedError(t *testing.T) {
	env, err := NewEnv(browser.UserMode, WithApps(alphaApp()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustState on an unhosted app did not panic")
		}
		if _, ok := r.(*UnknownAppError); !ok {
			t.Fatalf("panic value %T, want *UnknownAppError", r)
		}
	}()
	env.MustState("Beta")
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewScenario(alphaApp(), "empty").Build(); err == nil {
		t.Error("builder accepted a scenario with no steps")
	}
	if _, err := NewScenarioAt("", "nameless app", "http://x/").ClickID("a").Build(); err == nil {
		t.Error("builder accepted an empty app name")
	}
	sc, err := NewScenario(alphaApp(), "ok").ClickID("who").Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.App != "Alpha" || sc.StartURL != "http://alpha.test/" || len(sc.Steps) != 1 {
		t.Errorf("built scenario: %+v", sc)
	}
	if got := sc.Steps[0].String(); got != "click #who" {
		t.Errorf("step renders as %q", got)
	}
}
