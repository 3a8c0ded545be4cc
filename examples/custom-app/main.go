// Custom-app: bring your own web application and workload — the
// environment API is an open world.
//
// This example defines a tiny guestbook application and a "sign the
// guestbook" scenario entirely on the public API (no internal
// packages), registers both, and then runs the paper's Fig. 1 loop
// over them: record the session in one environment, replay the trace
// in a brand-new one, and check the oracle there. After registration
// the same workload is also available to the command-line tools by
// name (warr-record/weberr -scenario sign-guestbook), because they
// resolve scenarios through the same registry.
//
//	go run ./examples/custom-app
package main

import (
	"fmt"
	"log"
	"sync"

	warr "github.com/dslab-epfl/warr"
)

// ---- the application plugin ----

// Guestbook hosts guestbook.test: a message box and a scripted Sign
// control appending entries server-side.
type Guestbook struct{}

func (Guestbook) Name() string     { return "Guestbook" }
func (Guestbook) Host() string     { return "guestbook.test" }
func (Guestbook) StartURL() string { return "http://guestbook.test/" }

// NewState returns fresh per-environment server state: two environments
// hosting the Guestbook never share entries.
func (Guestbook) NewState() warr.AppState { return newGuestbookState() }

type guestbookState struct {
	srv *warr.WebServer

	mu   sync.Mutex
	data guestbookData
}

// guestbookData declares every mutable field of the guestbook once.
// The registry derives the rest from it: Env.Fork deep-copies it (so
// campaigns share trace prefixes via checkpoints), environment images
// serialize its JSON, and Env.Reset rebuilds it with NewState.
type guestbookData struct {
	Entries []string `json:"entries"`
}

func newGuestbookState() *guestbookState {
	s := &guestbookState{}
	srv := warr.NewWebServer("guestbook")
	srv.Handle("/", s.home)
	srv.Handle("/sign", s.sign)
	s.srv = srv
	return s
}

func (s *guestbookState) Handler() warr.WebHandler { return s.srv }

// Declare implements warr.AppDeclarer: the lock, the declared state,
// and the server whose sessions belong to it.
func (s *guestbookState) Declare() (*sync.Mutex, any, *warr.WebServer) {
	return &s.mu, &s.data, s.srv
}

func (s *guestbookState) Entries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.data.Entries...)
}

func (s *guestbookState) home(req *warr.WebRequest, sess *warr.WebSession) *warr.WebResponse {
	s.mu.Lock()
	entries := append([]string(nil), s.data.Entries...)
	s.mu.Unlock()

	list := `<div class="empty">Be the first to sign!</div>`
	if len(entries) > 0 {
		list = ""
		for i, e := range entries {
			list += fmt.Sprintf(`<div class="entry" id="e%d">%s</div>`, i+1, warr.HTMLEscape(e))
		}
	}
	body := fmt.Sprintf(`
<div id="hdr">Guestbook</div>
<div>Message <input id="msg" name="msg"></div>
<div id="sign" name="sign">Sign</div>
<div id="entries">%s</div>`, list)

	// The Sign control is scripted (not a form submit): exactly the
	// kind of action page-level recorders miss and the engine-embedded
	// WaRR Recorder captures.
	script := `
document.getElementById("sign").addEventListener("click", function(e) {
	var msg = document.getElementById("msg").value;
	window.location = "/sign?msg=" + encodeURIComponent(msg);
});
`
	return warr.WebOK(warr.WebPage("Guestbook", body, script))
}

func (s *guestbookState) sign(req *warr.WebRequest, sess *warr.WebSession) *warr.WebResponse {
	if msg := req.Form.Get("msg"); msg != "" {
		s.mu.Lock()
		s.data.Entries = append(s.data.Entries, msg)
		s.mu.Unlock()
	}
	return warr.WebRedirect("/")
}

// ---- the scenario, on the declarative builder ----

// signScenario types a message and signs. The oracle reads the
// server-side state back through the environment's registry lookup.
func signScenario() warr.Scenario {
	const message = "WaRR was here"
	return warr.NewScenario(Guestbook{}, "Sign guestbook").
		ClickID("msg").
		Type(message).
		Pause().
		ClickName("sign").
		Verify(func(env *warr.Env, tab *warr.Tab) error {
			st, ok := env.State("Guestbook")
			if !ok {
				return fmt.Errorf("guestbook not hosted")
			}
			entries := st.(*guestbookState).Entries()
			if len(entries) != 1 || entries[0] != message {
				return fmt.Errorf("entries = %q, want [%q]", entries, message)
			}
			return nil
		}).
		MustBuild()
}

func main() {
	// 1. Register the plugin: from here on, every NewDemoEnv hosts the
	// guestbook next to the paper's applications, and the scenario
	// resolves by name everywhere.
	warr.MustRegisterApp(Guestbook{})
	warr.MustRegisterScenario("sign-guestbook", signScenario)

	sc, err := warr.LookupScenario("sign-guestbook")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %q against %s; steps:\n", sc.Name, sc.App)
	for _, step := range sc.Steps {
		fmt.Printf("  %s\n", step)
	}

	// 2. Record the session (the shared record path: navigate, attach,
	// run, detach).
	trace, err := warr.RecordSession(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecorded %d WaRR Commands\n", len(trace.Commands))

	// 3. Replay in a brand-new environment and apply the oracle there.
	env := warr.NewDemoEnv(warr.DeveloperMode)
	res, tab, err := warr.Replay(env.Browser, trace)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Complete() {
		log.Fatalf("replay incomplete: %d failed", res.Failed)
	}
	if err := sc.Verify(env, tab); err != nil {
		log.Fatalf("replay did not reproduce the session: %v", err)
	}
	fmt.Println("replayed in a fresh environment: guestbook signed there too")

	// 4. The same trace drives a WebErr timing campaign — any
	// registered workload is campaign-testable.
	fresh := warr.NewEnvFactory(warr.DeveloperMode)
	rep := warr.RunTimingCampaign(fresh, trace, warr.CampaignOptions{})
	fmt.Printf("timing campaign: %d erroneous traces replayed, %d findings\n",
		rep.Replayed, len(rep.Findings))
}
