package calendar_test

import (
	"testing"

	warr "github.com/dslab-epfl/warr"
	"github.com/dslab-epfl/warr/apps/calendar"
)

// TestRecordReplayCreateEvent runs the paper's Fig. 1 loop over the
// plugin app: record the create-event session in one environment,
// replay the trace in a brand-new one, and require the scenario's
// oracle to pass against the replay environment.
func TestRecordReplayCreateEvent(t *testing.T) {
	sc := calendar.CreateEventScenario()
	tr, err := warr.RecordSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Commands) == 0 {
		t.Fatal("recorder produced no commands")
	}

	env := warr.NewDemoEnv(warr.DeveloperMode)
	res, tab, err := warr.Replay(env.Browser, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("replay incomplete: played %d, failed %d", res.Played, res.Failed)
	}
	if err := sc.Verify(env, tab); err != nil {
		t.Errorf("replay did not reproduce the session: %v", err)
	}
}

// TestCalendarIsRegistered asserts importing the package was enough to
// make the app and workload resolvable everywhere the tools look.
func TestCalendarIsRegistered(t *testing.T) {
	if _, err := warr.LookupApp(calendar.Name); err != nil {
		t.Fatalf("app not registered: %v", err)
	}
	sc, err := warr.LookupScenario("create-event")
	if err != nil {
		t.Fatalf("scenario not registered: %v", err)
	}
	if sc.App != calendar.Name || sc.StartURL != calendar.URL {
		t.Errorf("scenario resolves to %s @ %s", sc.App, sc.StartURL)
	}
}

// TestCalendarOnlyEnv hosts the calendar alone via WithApps: the
// environment serves it, and none of the demo applications.
func TestCalendarOnlyEnv(t *testing.T) {
	env, err := warr.NewEnv(warr.UserMode, warr.WithApps(calendar.App{}))
	if err != nil {
		t.Fatal(err)
	}
	tab := env.Browser.NewTab()
	if err := tab.Navigate(calendar.URL); err != nil {
		t.Fatal(err)
	}
	if err := tab.Navigate(warr.SitesURL); err == nil {
		t.Error("demo app reachable in a WithApps(calendar) environment")
	}
	st := calendar.StateIn(env)
	if st == nil {
		t.Fatal("calendar state missing")
	}
	if got := len(st.Events()); got != 0 {
		t.Fatalf("fresh calendar has %d events", got)
	}
}
