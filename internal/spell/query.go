package spell

import "strings"

// QueryCorrector corrects whole queries against a corpus of known
// queries, the way a search engine with rich query logs can: instead of
// fixing words one at a time against a dictionary, it snaps the entire
// query to the nearest frequently-seen query. This is the mechanism that
// lets the Google-shaped engine of Table I detect and fix every injected
// typo — the original query is always in the corpus, and a single-word
// typo leaves the full query within a small edit distance of it.
type QueryCorrector struct {
	// Name identifies the engine flavour in reports.
	Name string

	// corpus holds the normalized corpus queries in corpus order, and
	// known the same queries as a set.
	corpus      []string
	known       map[string]struct{}
	maxDistance int
	// fallback fixes queries that no corpus entry is near enough to.
	fallback *Corrector
}

// NewQueryCorrector builds a query-level corrector. maxDistance bounds
// the whole-query edit distance considered; fallback may be nil.
func NewQueryCorrector(name string, corpus []string, maxDistance int, fallback *Corrector) *QueryCorrector {
	c := &QueryCorrector{
		Name:        name,
		corpus:      make([]string, len(corpus)),
		known:       make(map[string]struct{}, len(corpus)),
		maxDistance: maxDistance,
		fallback:    fallback,
	}
	for i, q := range corpus {
		c.corpus[i] = normalizeQuery(q)
		c.known[c.corpus[i]] = struct{}{}
	}
	return c
}

// Correct returns the corrected query and whether it changed.
func (c *QueryCorrector) Correct(query string) (string, bool) {
	q := normalizeQuery(query)
	if _, ok := c.known[q]; ok {
		return query, false // already a known query
	}
	best := ""
	bestDist := c.maxDistance + 1
	for _, nc := range c.corpus {
		// Cheap length filter before the O(nm) distance.
		dl := len(nc) - len(q)
		if dl < 0 {
			dl = -dl
		}
		if dl >= bestDist {
			continue
		}
		if dist := withinDistance(q, nc, bestDist-1); dist < bestDist {
			best, bestDist = nc, dist
		}
	}
	if best != "" {
		return best, true
	}
	if c.fallback != nil {
		return c.fallback.Correct(query)
	}
	return query, false
}

func normalizeQuery(q string) string { return strings.Join(Words(q), " ") }
