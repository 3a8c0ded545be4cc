package webapp

import (
	"maps"
	"slices"
	"strings"
)

// This file is the one walk over a server's sessions: forks copy them
// through ExportSessions/ImportSessions, environment images serialize
// the export, and the per-session coverage lane hashes it. It carries
// the issued sessions, their values and the sid counter, so a forked
// server mints the same future sids as the original.

// SessionImage is one serialized session.
type SessionImage struct {
	ID   string            `json:"id"`
	Vals map[string]string `json:"vals,omitempty"`
}

// SessionsImage is a server's serialized session state.
type SessionsImage struct {
	NextSID  int            `json:"nextSID"`
	Sessions []SessionImage `json:"sessions,omitempty"`
}

// ExportSessions captures the server's sessions, sorted by id for
// deterministic encoding. The result shares nothing with the server.
func (s *Server) ExportSessions() *SessionsImage {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := &SessionsImage{NextSID: s.nextSID, Sessions: make([]SessionImage, 0, len(s.sessions))}
	for id, sess := range s.sessions {
		sess.mu.Lock()
		img.Sessions = append(img.Sessions, SessionImage{ID: id, Vals: maps.Clone(sess.vals)})
		sess.mu.Unlock()
	}
	slices.SortFunc(img.Sessions, func(a, b SessionImage) int { return strings.Compare(a.ID, b.ID) })
	return img
}

// ImportSessions replaces the server's sessions with the imaged ones.
// The server takes ownership of img's value maps: pass a fresh export,
// not one still in use.
func (s *Server) ImportSessions(img *SessionsImage) {
	sessions := make(map[string]*Session, len(img.Sessions))
	for _, si := range img.Sessions {
		vals := si.Vals
		if vals == nil {
			vals = make(map[string]string)
		}
		sessions[si.ID] = &Session{ID: si.ID, vals: vals}
	}
	s.mu.Lock()
	s.sessions = sessions
	s.nextSID = img.NextSID
	s.mu.Unlock()
}
