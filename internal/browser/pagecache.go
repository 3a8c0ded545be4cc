package browser

import (
	"sync"

	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/fnv1a"
	"github.com/dslab-epfl/warr/internal/htmlparse"
)

// Process-wide page-template cache. Campaign replays load the same
// pages over and over — every job of an edit-site campaign starts on
// the same served HTML — and parsing plus index construction per load
// was a top cost of the replay hot path. Instead, HTML seen repeatedly
// is parsed once into an immutable template document, and each load
// clones the template (dom.CloneWithIndex: one arena copy walk that
// also fills the copy's query index), which is cheaper than tokenizing.
//
// Like the script parse cache, templates are stored only from a
// source's second sighting — pages generated uniquely per load (GMail
// embeds fresh element ids) would otherwise fill the cache with
// one-shot trees — and both tables are bounded by two generations with
// hot-entry promotion.
//
// Templates are keyed by HTML alone; the document URL is stamped onto
// the clone (the tree's shape does not depend on it).
const pageCacheGen = 256

var (
	pageMu   sync.RWMutex
	pageCur  = make(map[string]*dom.Document)
	pagePrev map[string]*dom.Document
	pageSeen = make(map[uint64]struct{})
	pageOld  map[uint64]struct{}
)

// parsePage returns a fresh, mutable document for the HTML, through
// the template cache.
func parsePage(html, url string) *dom.Document {
	pageMu.RLock()
	tmpl, hot := pageCur[html]
	if !hot {
		tmpl = pagePrev[html]
	}
	pageMu.RUnlock()
	if tmpl != nil {
		doc := tmpl.CloneWithIndex(nil)
		doc.URL = url
		if !hot {
			storeTemplate(html, tmpl)
		}
		return doc
	}

	doc := htmlparse.Parse(html, url)
	h := fnv1a.String(html)
	pageMu.Lock()
	_, seen := pageSeen[h]
	if !seen {
		_, seen = pageOld[h]
	}
	if !seen {
		if len(pageSeen) >= pageCacheGen {
			pageOld, pageSeen = pageSeen, make(map[uint64]struct{}, pageCacheGen)
		}
		pageSeen[h] = struct{}{}
		pageMu.Unlock()
		return doc
	}
	pageMu.Unlock()

	// Second sighting: park an immutable template and hand the caller
	// an independent clone. The template is never given out, so nothing
	// can mutate it.
	tmpl = doc.CloneWithIndex(nil)
	storeTemplate(html, tmpl)
	return doc
}

// storeTemplate inserts (or promotes) a template under the bounded
// two-generation scheme.
func storeTemplate(html string, tmpl *dom.Document) {
	pageMu.Lock()
	if _, hot := pageCur[html]; !hot {
		if len(pageCur) >= pageCacheGen {
			pagePrev, pageCur = pageCur, make(map[string]*dom.Document, pageCacheGen)
		}
		pageCur[html] = tmpl
	}
	pageMu.Unlock()
}
