// Package calendar is a demo web application built entirely on WaRR's
// public plugin surface — no internal packages, no edits to the library.
// It exists to prove the environment API is genuinely open: importing
// this package registers the "Calendar" application and its
// "create-event" workload in the default registry, after which the app
// is recordable by warr-record, replayable by warr-replay,
// campaign-testable by weberr, and covered by the golden-trace corpus,
// exactly like the five paper applications.
//
// The application is a small agenda: clicking "New event" reveals an
// entry form (the GMail-compose interaction shape — a scripted click
// listener, not a plain HTML form), typing fills the title and day
// fields, and the scripted Save control submits via a generated URL.
package calendar

import (
	"fmt"
	"sync"

	warr "github.com/dslab-epfl/warr"
)

// Network identity of the application.
const (
	// Name is the registered application name.
	Name = "Calendar"
	// Host is the network host the calendar serves.
	Host = "calendar.test"
	// URL is the start page of recorded sessions.
	URL = "http://" + Host + "/"
)

func init() {
	warr.MustRegisterApp(App{})
	warr.MustRegisterScenario("create-event", CreateEventScenario)
}

// App is the calendar plugin. It is stateless — every environment gets
// a fresh *State from NewState.
type App struct{}

// Name implements warr.App.
func (App) Name() string { return Name }

// Host implements warr.App.
func (App) Host() string { return Host }

// StartURL implements warr.App.
func (App) StartURL() string { return URL }

// NewState implements warr.App.
func (App) NewState() warr.AppState { return NewState() }

// Event is one agenda entry.
type Event struct {
	Day   string
	Title string
}

// State is one environment's calendar: its stored events and the server
// rendering them.
type State struct {
	srv *warr.WebServer

	mu   sync.Mutex
	data stateData
}

// stateData is the calendar's mutable state, declared once: the
// registry derives the fork copy, the environment image and the reset
// from it (warr.AppDeclarer).
type stateData struct {
	Events []Event `json:"events"`
}

// NewState returns an empty calendar server.
func NewState() *State {
	s := &State{}
	srv := warr.NewWebServer("calendar")
	srv.Handle("/", s.agenda)
	srv.Handle("/add", s.add)
	s.srv = srv
	return s
}

// Handler implements warr.AppState.
func (s *State) Handler() warr.WebHandler { return s.srv }

// Declare implements warr.AppDeclarer, making calendar-hosting
// environments forkable like the built-in applications.
func (s *State) Declare() (*sync.Mutex, any, *warr.WebServer) { return &s.mu, &s.data, s.srv }

// CoverageMarks implements warr.AppCoverageSource: one mark per stored
// event, derived purely from the current state — so the fuzzing
// campaigns' coverage feedback sees calendar state transitions exactly
// like the built-in applications'.
func (s *State) CoverageMarks() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	marks := make([]uint64, 0, len(s.data.Events))
	for _, e := range s.data.Events {
		// FNV-1a over "calendar.event", day, title with NUL separators.
		h := uint64(14695981039346656037)
		for _, part := range []string{"calendar.event", e.Day, e.Title} {
			for i := 0; i < len(part); i++ {
				h ^= uint64(part[i])
				h *= 1099511628211
			}
			h *= 1099511628211
		}
		marks = append(marks, h)
	}
	return marks
}

// Events returns a copy of the stored events, in creation order.
func (s *State) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.data.Events...)
}

// agenda renders the event list with the entry form hidden; the "New
// event" control reveals it through a scripted click listener — the
// interaction shape page-level recorders miss.
func (s *State) agenda(req *warr.WebRequest, sess *warr.WebSession) *warr.WebResponse {
	s.mu.Lock()
	events := append([]Event(nil), s.data.Events...)
	s.mu.Unlock()

	list := `<div class="empty">No events yet.</div>`
	if len(events) > 0 {
		list = ""
		for i, e := range events {
			list += fmt.Sprintf(`<div class="event" id="ev%d">%s: %s</div>`,
				i+1, warr.HTMLEscape(e.Day), warr.HTMLEscape(e.Title))
		}
	}

	body := fmt.Sprintf(`
<div id="hdr"><div id="new">New event</div></div>
<div id="form" style="display:none">
<div>Title <input id="title" name="title"></div>
<div>Day <input id="day" name="day"></div>
<div id="save" name="save">Save</div>
</div>
<div id="agenda">%s</div>`, list)

	script := `
document.getElementById("new").addEventListener("click", function(e) {
	document.getElementById("form").style = "";
	document.getElementById("title").focus();
});
document.getElementById("save").addEventListener("click", function(e) {
	var title = document.getElementById("title").value;
	var day = document.getElementById("day").value;
	window.location = "/add?title=" + encodeURIComponent(title) +
		"&day=" + encodeURIComponent(day);
});
`
	return warr.WebOK(warr.WebPage("Calendar", body, script))
}

// add stores one event and returns to the agenda.
func (s *State) add(req *warr.WebRequest, sess *warr.WebSession) *warr.WebResponse {
	e := Event{
		Day:   req.Form.Get("day"),
		Title: req.Form.Get("title"),
	}
	if e.Title == "" {
		return warr.WebRedirect("/")
	}
	s.mu.Lock()
	s.data.Events = append(s.data.Events, e)
	s.mu.Unlock()
	return warr.WebRedirect("/")
}

// StateIn returns the environment's calendar instance.
func StateIn(env *warr.Env) *State {
	st, ok := env.State(Name)
	if !ok {
		return nil
	}
	return st.(*State)
}

// CreateEventScenario is the calendar workload: open the entry form,
// type a title and a day, and save. Its oracle checks the event was
// stored server-side.
func CreateEventScenario() warr.Scenario {
	want := Event{Day: "Fri", Title: "Standup"}
	return warr.NewScenario(App{}, "Create event").
		ClickID("new").
		Pause().
		Type(want.Title).
		Pause().
		ClickID("day").
		Type(want.Day).
		Pause().
		ClickName("save").
		Verify(func(env *warr.Env, tab *warr.Tab) error {
			st := StateIn(env)
			if st == nil {
				return fmt.Errorf("calendar: app not hosted in this environment")
			}
			events := st.Events()
			if len(events) != 1 {
				return fmt.Errorf("calendar: %d events stored, want 1", len(events))
			}
			if events[0] != want {
				return fmt.Errorf("calendar: stored %+v, want %+v", events[0], want)
			}
			return nil
		}).
		MustBuild()
}
