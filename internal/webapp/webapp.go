// Package webapp is the server-side application framework for the
// simulated web applications (Google Sites, GMail, the Yahoo portal,
// Google Docs, and the three search engines). It provides routing,
// cookie-based sessions, and page rendering over netsim — the moral
// equivalent of the servers the paper's evaluation ran against.
package webapp

import (
	"fmt"
	"strings"
	"sync"

	"github.com/dslab-epfl/warr/internal/netsim"
)

// htmlEscaper escapes text for safe inclusion in HTML content.
var htmlEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
)

// HTMLEscape escapes text for safe inclusion in HTML content — the
// escaping the demo applications (and external App plugins) render user
// input with.
func HTMLEscape(s string) string { return htmlEscaper.Replace(s) }

// Session is per-user server-side state, keyed by the sid cookie.
type Session struct {
	ID string

	mu   sync.Mutex
	vals map[string]string
}

// Get returns the session value for key ("" when absent).
func (s *Session) Get(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[key]
}

// Set stores a session value.
func (s *Session) Set(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[key] = value
}

// PageFunc handles one route.
type PageFunc func(req *netsim.Request, sess *Session) *netsim.Response

// Server is a netsim.Handler with routing and sessions.
type Server struct {
	// Name identifies the application in logs and reports.
	Name string

	mu       sync.Mutex
	routes   map[string]PageFunc
	sessions map[string]*Session
	nextSID  int
}

// NewServer returns an empty application server.
func NewServer(name string) *Server {
	return &Server{
		Name:     name,
		routes:   make(map[string]PageFunc),
		sessions: make(map[string]*Session),
	}
}

// Handle registers fn for the exact path.
func (s *Server) Handle(path string, fn PageFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[path] = fn
}

// Serve implements netsim.Handler.
func (s *Server) Serve(req *netsim.Request) *netsim.Response {
	if err := req.ParseForm(); err != nil {
		return &netsim.Response{Status: 400, ContentType: "text/html", Header: map[string]string{}, Body: "bad request"}
	}
	sess, isNew := s.session(req)

	s.mu.Lock()
	fn, ok := s.routes[req.Path()]
	s.mu.Unlock()
	if !ok {
		return netsim.NotFound()
	}
	resp := fn(req, sess)
	if resp == nil {
		resp = netsim.NotFound()
	}
	if resp.Header == nil {
		resp.Header = make(map[string]string)
	}
	if isNew {
		resp.Header["Set-Cookie"] = "sid=" + sess.ID
	}
	return resp
}

// session finds or creates the session for the request's sid cookie.
func (s *Server) session(req *netsim.Request) (sess *Session, isNew bool) {
	sid := cookieValue(req.Header["Cookie"], "sid")
	s.mu.Lock()
	defer s.mu.Unlock()
	if sid != "" {
		if sess, ok := s.sessions[sid]; ok {
			return sess, false
		}
	}
	s.nextSID++
	sess = &Session{ID: fmt.Sprintf("%s-%d", s.Name, s.nextSID), vals: make(map[string]string)}
	s.sessions[sess.ID] = sess
	return sess, true
}

func cookieValue(header, name string) string {
	for _, part := range strings.Split(header, ";") {
		part = strings.TrimSpace(part)
		if v, ok := strings.CutPrefix(part, name+"="); ok {
			return v
		}
	}
	return ""
}

// Page renders a complete HTML page with optional script code.
func Page(title, bodyHTML, scriptSrc string) string {
	var b strings.Builder
	b.WriteString("<html><head><title>")
	b.WriteString(title)
	b.WriteString("</title></head><body>")
	b.WriteString(bodyHTML)
	if scriptSrc != "" {
		b.WriteString("<script>")
		b.WriteString(scriptSrc)
		b.WriteString("</script>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Redirect returns a 302 response to location. The simulated browser
// follows redirects during navigation.
func Redirect(location string) *netsim.Response {
	return &netsim.Response{
		Status:      302,
		ContentType: "text/html",
		Header:      map[string]string{"Location": location},
		Body:        "",
	}
}
