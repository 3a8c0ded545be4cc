package apps

import (
	"encoding/json"

	"github.com/dslab-epfl/warr/internal/webapp"
)

// Durable-image marshalers (registry.ImageMarshaler) for the five
// evaluation applications. Each serializes exactly what its Snapshot
// copies — the mutable fields plus the issued sessions — as JSON, which
// encodes map keys sorted, so identical states marshal to identical
// bytes (the determinism image digests rely on). GMail's process-global
// id counter is deliberately absent, for the same reason Snapshot
// shares it: real GMail's minted ids never repeat across any two page
// loads, in any process. The multi-user fields (Sites notes, the Docs
// tally, Yahoo's last-arrival slot) are omitempty, so single-user
// worlds, which never touch them, keep the bytes and digests that
// committed images (testdata/corpus/edit-site.image) pin.

type sitesImage struct {
	Pages    map[string]string     `json:"pages"`
	Saves    int                   `json:"saves"`
	Notes    []string              `json:"notes,omitempty"`
	Sessions *webapp.SessionsImage `json:"sessions"`
}

// MarshalImage implements registry.ImageMarshaler.
func (s *Sites) MarshalImage() ([]byte, error) {
	s.mu.Lock()
	pages := make(map[string]string, len(s.pages))
	for k, v := range s.pages {
		pages[k] = v
	}
	saves := s.saves
	notes := append([]string(nil), s.notes...)
	s.mu.Unlock()
	return json.Marshal(sitesImage{Pages: pages, Saves: saves, Notes: notes, Sessions: s.srv.ExportSessions()})
}

// UnmarshalImage implements registry.ImageMarshaler.
func (s *Sites) UnmarshalImage(data []byte) error {
	var img sitesImage
	if err := json.Unmarshal(data, &img); err != nil {
		return err
	}
	s.mu.Lock()
	s.pages = img.Pages
	if s.pages == nil {
		s.pages = map[string]string{}
	}
	s.saves = img.Saves
	s.notes = img.Notes
	s.mu.Unlock()
	if img.Sessions != nil {
		s.srv.ImportSessions(img.Sessions)
	}
	return nil
}

type gmailImage struct {
	Sent     []Mail                `json:"sent"`
	Sessions *webapp.SessionsImage `json:"sessions"`
}

// MarshalImage implements registry.ImageMarshaler.
func (g *GMail) MarshalImage() ([]byte, error) {
	g.mu.Lock()
	sent := append([]Mail(nil), g.sent...)
	g.mu.Unlock()
	return json.Marshal(gmailImage{Sent: sent, Sessions: g.srv.ExportSessions()})
}

// UnmarshalImage implements registry.ImageMarshaler.
func (g *GMail) UnmarshalImage(data []byte) error {
	var img gmailImage
	if err := json.Unmarshal(data, &img); err != nil {
		return err
	}
	g.mu.Lock()
	g.sent = img.Sent
	g.mu.Unlock()
	if img.Sessions != nil {
		g.srv.ImportSessions(img.Sessions)
	}
	return nil
}

type docsImage struct {
	Cells    map[string]string     `json:"cells"`
	Tally    int                   `json:"tally,omitempty"`
	Sessions *webapp.SessionsImage `json:"sessions"`
}

// MarshalImage implements registry.ImageMarshaler.
func (d *Docs) MarshalImage() ([]byte, error) {
	d.mu.Lock()
	cells := make(map[string]string, len(d.cells))
	for k, v := range d.cells {
		cells[k] = v
	}
	tally := d.tally
	d.mu.Unlock()
	return json.Marshal(docsImage{Cells: cells, Tally: tally, Sessions: d.srv.ExportSessions()})
}

// UnmarshalImage implements registry.ImageMarshaler.
func (d *Docs) UnmarshalImage(data []byte) error {
	var img docsImage
	if err := json.Unmarshal(data, &img); err != nil {
		return err
	}
	d.mu.Lock()
	d.cells = img.Cells
	if d.cells == nil {
		d.cells = map[string]string{}
	}
	d.tally = img.Tally
	d.mu.Unlock()
	if img.Sessions != nil {
		d.srv.ImportSessions(img.Sessions)
	}
	return nil
}

type yahooImage struct {
	Logins   int                   `json:"logins"`
	LastName string                `json:"lastName,omitempty"`
	Sessions *webapp.SessionsImage `json:"sessions"`
}

// MarshalImage implements registry.ImageMarshaler.
func (y *Yahoo) MarshalImage() ([]byte, error) {
	y.mu.Lock()
	logins, lastName := y.logins, y.lastName
	y.mu.Unlock()
	return json.Marshal(yahooImage{Logins: logins, LastName: lastName, Sessions: y.srv.ExportSessions()})
}

// UnmarshalImage implements registry.ImageMarshaler.
func (y *Yahoo) UnmarshalImage(data []byte) error {
	var img yahooImage
	if err := json.Unmarshal(data, &img); err != nil {
		return err
	}
	y.mu.Lock()
	y.logins = img.Logins
	y.lastName = img.LastName
	y.mu.Unlock()
	if img.Sessions != nil {
		y.srv.ImportSessions(img.Sessions)
	}
	return nil
}

type searchImage struct {
	Queries  []string              `json:"queries"`
	Sessions *webapp.SessionsImage `json:"sessions"`
}

// MarshalImage implements registry.ImageMarshaler. The corrector is not
// serialized: it is an immutable, deterministic function of the engine
// name, rebuilt by NewState on the restoring side.
func (e *SearchEngine) MarshalImage() ([]byte, error) {
	e.mu.Lock()
	queries := append([]string(nil), e.queries...)
	e.mu.Unlock()
	return json.Marshal(searchImage{Queries: queries, Sessions: e.srv.ExportSessions()})
}

// UnmarshalImage implements registry.ImageMarshaler.
func (e *SearchEngine) UnmarshalImage(data []byte) error {
	var img searchImage
	if err := json.Unmarshal(data, &img); err != nil {
		return err
	}
	e.mu.Lock()
	e.queries = img.Queries
	e.mu.Unlock()
	if img.Sessions != nil {
		e.srv.ImportSessions(img.Sessions)
	}
	return nil
}
