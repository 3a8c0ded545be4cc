package apps

import (
	"sort"
	"strconv"

	"github.com/dslab-epfl/warr/internal/fnv1a"
	"github.com/dslab-epfl/warr/internal/spell"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// This file implements registry.CoverageSource for the five paper
// applications: the per-app state-transition lane of the replay
// coverage signal. Each state derives one 64-bit mark per distinct
// observable fact — a stored page, a sent mail, a served query, a
// bucketed counter — purely from its current contents, so a forked
// world reports exactly the marks of the original.

// coverMark hashes a labelled tuple of strings into one coverage mark.
// A NUL separator between parts keeps ("ab","c") distinct from
// ("a","bc").
func coverMark(parts ...string) uint64 {
	h := fnv1a.Offset
	for _, p := range parts {
		h = fnv1a.AddString(h, p)
		h = fnv1a.AddByte(h, 0)
	}
	return h
}

// countBucket collapses a counter into its power-of-two bucket, so a
// counter contributes O(log n) distinct marks instead of one per value.
func countBucket(n int) string {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return strconv.Itoa(b)
}

// CoverageMarks reports one mark per stored page (name and content)
// plus the bucketed save counter.
func (s *Sites) CoverageMarks() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	marks := make([]uint64, 0, len(s.data.Pages)+1)
	for name, content := range s.data.Pages {
		marks = append(marks, coverMark("sites.page", name, content))
	}
	marks = append(marks, coverMark("sites.saves", countBucket(s.data.Saves)))
	// Note marks only exist once notes do, so worlds that never touch
	// the shared notes list report exactly the marks they always have.
	for i, n := range s.data.Notes {
		marks = append(marks, coverMark("sites.note", strconv.Itoa(i), n))
	}
	return marks
}

// CoverageMarks reports one mark per sent mail.
func (g *GMail) CoverageMarks() []uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	marks := make([]uint64, 0, len(g.data.Sent)+1)
	for _, m := range g.data.Sent {
		marks = append(marks, coverMark("gmail.sent", m.To, m.Subject, m.Body))
	}
	marks = append(marks, coverMark("gmail.count", countBucket(len(g.data.Sent))))
	return marks
}

// CoverageMarks reports the bucketed login counter.
func (y *Yahoo) CoverageMarks() []uint64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	marks := []uint64{coverMark("yahoo.logins", countBucket(y.data.Logins))}
	if y.data.LastName != "" {
		marks = append(marks, coverMark("yahoo.presence", y.data.LastName))
	}
	return marks
}

// CoverageMarks reports one mark per spreadsheet cell.
func (d *Docs) CoverageMarks() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	marks := make([]uint64, 0, len(d.data.Cells))
	for name, value := range d.data.Cells {
		marks = append(marks, coverMark("docs.cell", name, value))
	}
	if d.data.Tally > 0 {
		marks = append(marks, coverMark("docs.tally", countBucket(d.data.Tally)))
	}
	return marks
}

// CoverageMarks reports one mark per distinct served query (as typed,
// pre-correction) plus the bucketed query counter, namespaced by the
// engine so Google/Bing/Yahoo! states never collide.
func (e *SearchEngine) CoverageMarks() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	distinct := make(map[string]struct{}, len(e.data.Queries))
	for _, q := range e.data.Queries {
		distinct[q] = struct{}{}
	}
	qs := make([]string, 0, len(distinct))
	for q := range distinct {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	marks := make([]uint64, 0, len(qs)+1)
	for _, q := range qs {
		marks = append(marks, coverMark("search.query", e.EngineName, q))
	}
	marks = append(marks, coverMark("search.count", e.EngineName, countBucket(len(e.data.Queries))))
	return marks
}

// sessionMarks hashes every live server-side session into one mark —
// id plus sorted values — implementing the per-session coverage lane
// (registry.SessionCoverageSource) for the webapp-based applications.
// Session ids are minted in request order, so the marks are a pure
// function of the request history the world has served.
func sessionMarks(app string, srv *webapp.Server) []uint64 {
	img := srv.ExportSessions()
	marks := make([]uint64, 0, len(img.Sessions))
	for _, sess := range img.Sessions {
		parts := make([]string, 0, len(sess.Vals)+2)
		parts = append(parts, app+".session", sess.ID)
		for k, v := range sess.Vals {
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts[2:])
		marks = append(marks, coverMark(parts...))
	}
	return marks
}

// SessionCoverageMarks implements registry.SessionCoverageSource.
func (s *Sites) SessionCoverageMarks() []uint64 { return sessionMarks("sites", s.srv) }

// SessionCoverageMarks implements registry.SessionCoverageSource.
func (g *GMail) SessionCoverageMarks() []uint64 { return sessionMarks("gmail", g.srv) }

// SessionCoverageMarks implements registry.SessionCoverageSource.
func (y *Yahoo) SessionCoverageMarks() []uint64 { return sessionMarks("yahoo", y.srv) }

// SessionCoverageMarks implements registry.SessionCoverageSource.
func (d *Docs) SessionCoverageMarks() []uint64 { return sessionMarks("docs", d.srv) }

// SessionCoverageMarks implements registry.SessionCoverageSource.
func (e *SearchEngine) SessionCoverageMarks() []uint64 {
	return sessionMarks("search."+e.EngineName, e.srv)
}

// QueryDictionary exposes the memoized full-corpus spell dictionary the
// search engines correct against. The error-model fuzzer ranks typo
// candidates by whether the mistyped word escapes this dictionary —
// an in-dictionary typo is exactly what the engines auto-correct, so
// out-of-dictionary results explore further.
func QueryDictionary() *spell.Dictionary {
	full, _ := corpusDictionaries()
	return full
}
