package apps

import (
	"fmt"
	"net/url"
	"strings"
	"sync"

	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// sitesApp is the Google Sites plugin; per-environment state is a
// fresh *Sites.
type sitesApp struct{}

func (sitesApp) Name() string                { return SitesName }
func (sitesApp) Host() string                { return SitesHost }
func (sitesApp) StartURL() string            { return SitesURL }
func (sitesApp) NewState() registry.AppState { return NewSites() }

// SitesApp returns the Google Sites plugin.
func SitesApp() registry.App { return sitesApp{} }

func init() { registry.MustRegisterApp(sitesApp{}) }

// Sites simulates Google Sites: a web hosting application whose pages are
// edited through a rich in-page editor. The editor's functionality loads
// asynchronously after the user clicks "Edit page" — exactly the behaviour
// the paper exploited to find a real bug: "we simulated impatient users
// who do not wait long enough and perform their changes right away. In
// doing so, we caused Google Sites to use an uninitialized JavaScript
// variable" (§V-C).
//
// The page structure matches the Fig. 4 trace: the edit control is
// //div/span[@id="start"], the editable area is //td/div[@id="content"],
// and the save control is //td/div[text()="Save"].
type Sites struct {
	srv *webapp.Server

	mu   sync.Mutex
	data sitesData
}

// sitesData is the mutable state of Sites, declared once: fork, image
// and reset derive from it (registry.Declarer).
type sitesData struct {
	Pages map[string]string `json:"pages"`
	Saves int               `json:"saves"`
	// Notes is the shared list the multi-user workloads edit; omitempty
	// keeps single-user images, which never touch it, byte-identical.
	Notes []string `json:"notes,omitempty"`
}

// NewSites returns a Sites application with one empty page, "home".
func NewSites() *Sites {
	s := &Sites{data: sitesData{Pages: map[string]string{"home": ""}}}
	srv := webapp.NewServer("sites")
	srv.Handle("/", s.view)
	srv.Handle("/content", s.content)
	srv.Handle("/save", s.save)
	srv.Handle("/notes", s.notesView)
	srv.Handle("/notes/save", s.notesSave)
	s.srv = srv
	return s
}

// Handler implements registry.AppState.
func (s *Sites) Handler() netsim.Handler { return s.srv }

// Declare implements registry.Declarer.
func (s *Sites) Declare() (*sync.Mutex, any, *webapp.Server) { return &s.mu, &s.data, s.srv }

// PageContent returns the stored content of the named page.
func (s *Sites) PageContent(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data.Pages[name]
}

// SetPageContent seeds a page (test setup).
func (s *Sites) SetPageContent(name, content string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data.Pages[name] = content
}

// Saves returns how many successful saves the server has handled.
func (s *Sites) Saves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data.Saves
}

// view renders the page with its edit chrome. The editor table exists in
// the initial HTML but is hidden and inert: its content area only becomes
// editable once the asynchronously fetched editor module arrives and
// initializes the global `editor` variable.
func (s *Sites) view(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	page := pageName(req)
	s.mu.Lock()
	content := s.data.Pages[page]
	s.mu.Unlock()

	display := content
	if display == "" {
		display = "This page is empty."
	}

	body := fmt.Sprintf(`
<div id="sitehdr"><span id="start">Edit page</span></div>
<div id="view">%s</div>
<table id="editor" style="display:none"><tbody><tr>
<td><div id="content"></div></td>
<td><div>Save</div></td>
</tr></tbody></table>`, webapp.HTMLEscape(display))

	script := fmt.Sprintf(`
var editor;
function saveNow() {
	var text = editor.textContent;
	window.location = "/save?page=%s&content=" + encodeURIComponent(text);
}
document.getElementById("start").addEventListener("click", function(e) {
	document.getElementById("view").style = "display:none";
	document.getElementById("editor").style = "";
	httpGet("/content?page=%s", function(body, status) {
		var c = document.getElementById("content");
		c.setAttribute("contenteditable", "true");
		c.textContent = body;
		c.focus();
		editor = c;
	});
});
`, page, page)

	html := webapp.Page("My Site - Google Sites", body, script)
	// Wire the Save control. It deliberately has no id — the Fig. 4 trace
	// identifies it by text: //td/div[text()="Save"].
	html = injectSaveHandler(html)
	return netsim.OK(html)
}

// injectSaveHandler adds the inline onclick to the Save div. Kept out of
// the Sprintf template so the markup above stays readable.
func injectSaveHandler(html string) string {
	return replaceOnce(html, "<td><div>Save</div></td>",
		`<td><div onclick="saveNow()">Save</div></td>`)
}

// content serves the raw page text the editor module seeds itself with.
// This is the asynchronous fetch (AJAX over netsim latency) that makes the
// application "more vulnerable to timing errors" (§V-B).
func (s *Sites) content(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	page := pageName(req)
	s.mu.Lock()
	defer s.mu.Unlock()
	return &netsim.Response{Status: 200, ContentType: "text/plain",
		Header: map[string]string{}, Body: s.data.Pages[page]}
}

// save stores the edited content and redirects back to the view.
func (s *Sites) save(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	page := pageName(req)
	content := req.Form.Get("content")
	s.mu.Lock()
	s.data.Pages[page] = content
	s.data.Saves++
	s.mu.Unlock()
	return webapp.Redirect("/?page=" + page)
}

// Notes returns the shared notes list in stored order.
func (s *Sites) Notes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.data.Notes...)
}

// notesView renders the shared notes list of the site. The "Add note"
// control is wired the way many early AJAX apps wired collection
// edits: the server composes the save URL at render time, baking the
// list AS READ NOW into the link — a read-modify-write whose read
// happens when the page renders and whose write happens when the user
// clicks. With one user that is indistinguishable from correct; with
// concurrent users, two renders of the same list make the second save
// overwrite the first user's note (a lost update).
func (s *Sites) notesView(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	me := req.Form.Get("me")
	s.mu.Lock()
	notes := append([]string(nil), s.data.Notes...)
	s.mu.Unlock()

	var list strings.Builder
	if len(notes) == 0 {
		list.WriteString(`<div class="note">No notes yet.</div>`)
	}
	for _, n := range notes {
		fmt.Fprintf(&list, `<div class="note">%s</div>`, webapp.HTMLEscape(n))
	}

	body := fmt.Sprintf(`
<div id="sitehdr">Site notes</div>
<div id="notes">%s</div>
<div id="addnote" onclick="addNote()">Add note</div>`, list.String())

	saveURL := "/notes/save?me=" + url.QueryEscape(me) +
		"&list=" + url.QueryEscape(strings.Join(notes, ","))
	script := fmt.Sprintf(`
function addNote() {
	window.location = %q;
}
`, saveURL)

	return netsim.OK(webapp.Page("Site notes - Google Sites", body, script))
}

// notesSave stores the submitted list plus the submitter's note —
// trusting the list the page read at render time (the seeded
// lost-update bug; see notesView).
func (s *Sites) notesSave(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	var notes []string
	for _, n := range strings.Split(req.Form.Get("list"), ",") {
		if n != "" {
			notes = append(notes, n)
		}
	}
	if me := req.Form.Get("me"); me != "" {
		notes = append(notes, me)
	}
	s.mu.Lock()
	s.data.Notes = notes
	s.data.Saves++
	s.mu.Unlock()
	return webapp.Redirect("/notes?me=" + url.QueryEscape(req.Form.Get("me")))
}

func pageName(req *netsim.Request) string {
	if p := req.Form.Get("page"); p != "" {
		return p
	}
	return "home"
}
