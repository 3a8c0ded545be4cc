package warr_test

import (
	"bytes"
	"testing"

	warr "github.com/dslab-epfl/warr"
	"github.com/dslab-epfl/warr/apps/calendar"
)

// TestEnvForkPublicSurface exercises environment forking through the
// public API only, against the calendar plugin — itself written purely
// on the public surface. Every registered application, plugin included,
// must implement AppDeclarer for the default world to fork.
func TestEnvForkPublicSurface(t *testing.T) {
	for _, app := range warr.RegisteredApps() {
		st := app.NewState()
		if _, ok := st.(warr.AppDeclarer); !ok {
			t.Errorf("app %q state (%T) does not implement AppDeclarer", app.Name(), st)
		}
	}

	tr, err := warr.RecordSession(calendar.CreateEventScenario())
	if err != nil {
		t.Fatal(err)
	}

	env := warr.NewDemoEnv(warr.DeveloperMode)
	s, err := warr.NewReplaySession(nil, env.Browser, tr, warr.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Commands)/2; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("session ended early at %d", i)
		}
	}

	// Fork the world mid-replay and finish the trace in the fork.
	forkEnv, err := env.Fork()
	if err != nil {
		t.Fatalf("Env.Fork: %v", err)
	}
	fork, err := s.Fork()
	if err != nil {
		t.Fatalf("Session.Fork: %v", err)
	}
	if res := fork.Run(); !res.Complete() {
		t.Fatalf("forked replay incomplete: %+v", res)
	}
	sessEnv, ok := fork.Tab().Browser().World().(*warr.Env)
	if !ok {
		t.Fatalf("forked browser world is %T, want *warr.Env", fork.Tab().Browser().World())
	}
	if got := len(calendar.StateIn(sessEnv).Events()); got != 1 {
		t.Errorf("forked world stored %d events, want 1", got)
	}
	// The plain Env.Fork copy is a world of its own, not affected by
	// either replay.
	if got := len(calendar.StateIn(forkEnv).Events()); got != 0 {
		t.Errorf("mid-replay env fork stored %d events, want 0", got)
	}
	// The parent finishes independently.
	if res := s.Run(); !res.Complete() {
		t.Fatalf("parent replay incomplete: %+v", res)
	}
	if got := len(calendar.StateIn(env).Events()); got != 1 {
		t.Errorf("parent world stored %d events, want 1", got)
	}
}

// TestEnvResetEqualsFreshEveryApp pins Env.Reset's contract for every
// registered application, plugin included: after a world has served
// every app (sessions minted) and replayed every registered scenario
// (data stored), Reset must leave each app imaging byte-for-byte like
// a fresh world's — same data, no sessions, and the same sid counter,
// so the reset world mints the session ids a fresh one would.
func TestEnvResetEqualsFreshEveryApp(t *testing.T) {
	fresh, err := warr.NewDemoEnv(warr.DeveloperMode).EncodeImage()
	if err != nil {
		t.Fatal(err)
	}

	env := warr.NewDemoEnv(warr.DeveloperMode)
	tab := env.Browser.NewTab()
	for _, app := range warr.RegisteredApps() {
		if err := tab.Navigate(app.StartURL()); err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
	}
	for _, name := range warr.ScenarioNames() {
		sc, err := warr.LookupScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := warr.RecordSession(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res, _, err := warr.Replay(env.Browser, tr); err != nil || !res.Complete() {
			t.Fatalf("%s: replay incomplete (%v)", name, err)
		}
	}

	imageApps := func() map[string][]byte {
		img, err := env.EncodeImage()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(img.Apps))
		for _, ai := range img.Apps {
			out[ai.Name] = ai.Data
		}
		return out
	}
	used := imageApps()
	if calendar.StateIn(env) == nil || len(calendar.StateIn(env).Events()) != 1 {
		t.Fatal("create-event replay stored no calendar event")
	}
	env.Reset()
	reset := imageApps()
	if calendar.StateIn(env) == nil || len(calendar.StateIn(env).Events()) != 0 {
		t.Error("Reset left calendar events behind")
	}

	for _, ai := range fresh.Apps {
		if bytes.Equal(used[ai.Name], ai.Data) {
			t.Errorf("%s: serving it left the state fresh; the test attacks nothing", ai.Name)
		}
		if !bytes.Equal(reset[ai.Name], ai.Data) {
			t.Errorf("%s: reset state differs from a fresh one\nreset: %s\nfresh: %s",
				ai.Name, reset[ai.Name], ai.Data)
		}
	}
}
