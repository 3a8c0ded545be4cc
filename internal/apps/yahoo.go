package apps

import (
	"fmt"
	"sync"

	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// yahooApp is the Yahoo! portal plugin; per-environment state is a
// fresh *Yahoo.
type yahooApp struct{}

func (yahooApp) Name() string                { return YahooName }
func (yahooApp) Host() string                { return YahooHost }
func (yahooApp) StartURL() string            { return YahooURL }
func (yahooApp) NewState() registry.AppState { return NewYahoo() }

// YahooApp returns the Yahoo! portal plugin.
func YahooApp() registry.App { return yahooApp{} }

func init() { registry.MustRegisterApp(yahooApp{}) }

// Yahoo simulates the Yahoo! web portal. Its authentication scenario is a
// plain HTML form — stable ids, standard input elements, a submit button.
// This is the one Table II scenario that even the page-level
// Selenium-IDE-style recorder captures completely (row "Yahoo /
// Authenticate: C, C"), because every user action lands on a form control.
type Yahoo struct {
	srv *webapp.Server

	mu   sync.Mutex
	data yahooData
}

// yahooData is the mutable state of the portal, declared once
// (registry.Declarer).
type yahooData struct {
	Logins int `json:"logins"`
	// LastName is the last-arrival slot multi-user workloads race on;
	// omitempty keeps single-user images byte-identical.
	LastName string `json:"lastName,omitempty"`
}

// NewYahoo returns a fresh portal.
func NewYahoo() *Yahoo {
	y := &Yahoo{}
	srv := webapp.NewServer("yahoo")
	srv.Handle("/", y.home)
	srv.Handle("/login", y.login)
	srv.Handle("/presence/hello", y.presenceHello)
	srv.Handle("/presence", y.presence)
	y.srv = srv
	return y
}

// Handler implements registry.AppState.
func (y *Yahoo) Handler() netsim.Handler { return y.srv }

// Declare implements registry.Declarer.
func (y *Yahoo) Declare() (*sync.Mutex, any, *webapp.Server) { return &y.mu, &y.data, y.srv }

// Logins returns how many successful sign-ins the portal has handled.
func (y *Yahoo) Logins() int {
	y.mu.Lock()
	defer y.mu.Unlock()
	return y.data.Logins
}

func (y *Yahoo) home(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	user := sess.Get("user")

	var account string
	if user != "" {
		account = fmt.Sprintf(`<div id="welcome">Welcome, %s</div>`, webapp.HTMLEscape(user))
	} else {
		errMsg := ""
		if req.Form.Get("err") != "" {
			errMsg = `<div id="loginerr">Invalid ID or password.</div>`
		}
		account = fmt.Sprintf(`%s
<form id="login" action="/login" method="POST">
<div>Yahoo! ID <input id="u" name="user"></div>
<div>Password <input id="p" name="pass" type="password"></div>
<input type="submit" name="signin" value="Sign In">
</form>`, errMsg)
	}

	body := fmt.Sprintf(`
<div id="masthead">Yahoo!</div>
<div id="news">
<div class="headline">Markets rally on tech earnings</div>
<div class="headline">World Cup qualifiers begin</div>
<div class="headline">New tablet review roundup</div>
</div>
%s`, account)

	return netsim.OK(webapp.Page("Yahoo!", body, ""))
}

// LastPresence returns the portal-global last-arrival slot (test
// introspection for the seeded session-collision bug).
func (y *Yahoo) LastPresence() string {
	y.mu.Lock()
	defer y.mu.Unlock()
	return y.data.LastName
}

// presenceHello announces a user. The name is stored in the session —
// and also in a portal-global "last arrival" slot, a classic shortcut
// from the single-user test environment where the two are always the
// same user.
func (y *Yahoo) presenceHello(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	name := req.Form.Get("name")
	sess.Set("pname", name)
	y.mu.Lock()
	y.data.LastName = name
	y.mu.Unlock()
	return webapp.Redirect("/presence")
}

// presence greets the visitor. The greeting should read the session's
// pname — instead it reads the portal-global slot (the seeded
// session-collision bug): correct whenever the visitor was the last
// arrival, i.e. always in single-user runs, and wrong exactly when
// another user said hello in between.
func (y *Yahoo) presence(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	y.mu.Lock()
	name := y.data.LastName
	y.mu.Unlock()

	body := fmt.Sprintf(`
<div id="masthead">Yahoo!</div>
<div id="who">Hello, %s</div>`, webapp.HTMLEscape(name))

	return netsim.OK(webapp.Page("Yahoo! Presence", body, ""))
}

// login accepts any account with a non-empty ID and password.
func (y *Yahoo) login(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	user := req.Form.Get("user")
	pass := req.Form.Get("pass")
	if user == "" || pass == "" {
		return webapp.Redirect("/?err=1")
	}
	sess.Set("user", user)
	y.mu.Lock()
	y.data.Logins++
	y.mu.Unlock()
	return webapp.Redirect("/")
}
