package apps

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// gmailApp is the GMail plugin; per-environment state is a fresh
// *GMail. The id counter stays process-global by design — that is the
// stale-id property itself.
type gmailApp struct{}

func (gmailApp) Name() string                { return GMailName }
func (gmailApp) Host() string                { return GMailHost }
func (gmailApp) StartURL() string            { return GMailURL }
func (gmailApp) NewState() registry.AppState { return NewGMail() }

// GMailApp returns the GMail plugin.
func GMailApp() registry.App { return gmailApp{} }

func init() { registry.MustRegisterApp(gmailApp{}) }

// Mail is one sent email.
type Mail struct {
	To      string
	Subject string
	Body    string
}

// GMail simulates the GMail compose flow. It reproduces the two GMail
// behaviours the paper leans on:
//
//   - "whenever GMail loaded, it generated new id properties for HTML
//     elements" (§IV-C) — every render of /mail mints fresh ids for the
//     interactive elements, so a recorded XPath like
//     //div/div[@id=":17"] is stale at replay time and the replayer must
//     fall back to its keep-only-name relaxation;
//   - composing an email exercises exactly the action mix that separates
//     engine-level from page-level recording in Table II: clicks, typing
//     into a contenteditable message body, and a drag of the compose
//     window header.
//
// GMail is served over HTTPS; a Fiddler-style network observer sees none
// of its request or response bodies (§II).
type GMail struct {
	srv *webapp.Server

	mu   sync.Mutex
	data gmailData
}

// gmailData is the mutable state of GMail, declared once
// (registry.Declarer). The process-global id counter is deliberately
// absent: real GMail's minted ids never repeat across any two page
// loads, so forks, images and resets all leave it running.
type gmailData struct {
	Sent []Mail `json:"sent"`
}

// gmailIDCounter is process-global: like the real GMail's id generator,
// it never repeats — so a page rendered in a replay environment never
// carries the ids recorded in the recording environment, even though both
// environments are otherwise deterministic.
var gmailIDCounter atomic.Int64

func init() { gmailIDCounter.Store(16) } // first minted id is ":17", GMail-style

// NewGMail returns a fresh GMail application.
func NewGMail() *GMail {
	g := &GMail{}
	srv := webapp.NewServer("gmail")
	srv.Handle("/", g.redirectInbox)
	srv.Handle("/mail", g.inbox)
	srv.Handle("/ads", g.ads)
	srv.Handle("/send", g.send)
	g.srv = srv
	return g
}

// Handler implements registry.AppState.
func (g *GMail) Handler() netsim.Handler { return g.srv }

// Declare implements registry.Declarer.
func (g *GMail) Declare() (*sync.Mutex, any, *webapp.Server) { return &g.mu, &g.data, g.srv }

// Sent returns a copy of all sent mails.
func (g *GMail) Sent() []Mail {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Mail(nil), g.data.Sent...)
}

// LastSent returns the most recently sent mail and whether one exists.
func (g *GMail) LastSent() (Mail, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.data.Sent) == 0 {
		return Mail{}, false
	}
	return g.data.Sent[len(g.data.Sent)-1], true
}

// nextID mints a fresh element id — the property that invalidates
// recorded XPath expressions at replay time (§IV-C).
func (g *GMail) nextID() string {
	return fmt.Sprintf(":%d", gmailIDCounter.Add(1))
}

func (g *GMail) redirectInbox(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	return webapp.Redirect("/mail")
}

// inbox renders the mailbox with the compose chrome. Interactive elements
// carry freshly minted ids plus stable name attributes; the generated
// script references the minted ids directly, the way GMail's generated
// code does.
func (g *GMail) inbox(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	idCompose := g.nextID()
	idHeader := g.nextID()
	idTo := g.nextID()
	idSubject := g.nextID()
	idBody := g.nextID()
	idSend := g.nextID()

	g.mu.Lock()
	nSent := len(g.data.Sent)
	g.mu.Unlock()

	body := fmt.Sprintf(`
<div id="hdr"><div id="%s" name="compose">Compose</div></div>
<div id="composer" style="display:none">
<div id="%s" name="composehdr" ondrag="event.target.setAttribute('data-dx', '' + event.dx); event.target.setAttribute('data-dy', '' + event.dy)">New Message</div>
<table><tbody>
<tr><td>To</td><td><input id="%s" name="to"></td></tr>
<tr><td>Subject</td><td><input id="%s" name="subject"></td></tr>
</tbody></table>
<div id="%s" name="body" contenteditable="true"></div>
<div id="%s" name="send">Send</div>
</div>
<div id="inbox"><div class="msg">Welcome to GMail</div><div class="msg">Sent mail: %d</div></div>
<iframe src="/ads" name="ads"></iframe>`,
		idCompose, idHeader, idTo, idSubject, idBody, idSend, nSent)

	script := fmt.Sprintf(`
document.getElementById("%s").addEventListener("click", function(e) {
	document.getElementById("composer").style = "";
	document.getElementById("%s").focus();
});
document.getElementById("%s").addEventListener("click", function(e) {
	var to = document.getElementById("%s").value;
	var subj = document.getElementById("%s").value;
	var body = document.getElementById("%s").textContent;
	window.location = "/send?to=" + encodeURIComponent(to) +
		"&subject=" + encodeURIComponent(subj) +
		"&body=" + encodeURIComponent(body);
});
`, idCompose, idTo, idSend, idTo, idSubject, idBody)

	return netsim.OK(webapp.Page("Inbox - GMail", body, script))
}

// ads serves the sidebar iframe (a src-bearing frame, so the webdriver
// master maintains a dedicated client for it).
func (g *GMail) ads(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	return netsim.OK(webapp.Page("Ads", `<div id="ad">Try WaRR today</div>`, ""))
}

// send records the composed mail and returns to the inbox.
func (g *GMail) send(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	m := Mail{
		To:      req.Form.Get("to"),
		Subject: req.Form.Get("subject"),
		Body:    req.Form.Get("body"),
	}
	g.mu.Lock()
	g.data.Sent = append(g.data.Sent, m)
	g.mu.Unlock()
	return webapp.Redirect("/mail")
}
