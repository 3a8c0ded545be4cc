package apps

import (
	"fmt"
	"hash/fnv"
	"sync"

	"github.com/dslab-epfl/warr/internal/humanerr"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/spell"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// searchApp is one Table I engine plugin; the three engines share the
// *SearchEngine state type and differ in corrector construction.
type searchApp struct {
	name, host, url string
	newState        func() *SearchEngine
}

func (a searchApp) Name() string                { return a.name }
func (a searchApp) Host() string                { return a.host }
func (a searchApp) StartURL() string            { return a.url }
func (a searchApp) NewState() registry.AppState { return a.newState() }

// GoogleSearchApp returns the Google-shaped engine plugin.
func GoogleSearchApp() registry.App {
	return searchApp{GoogleName, GoogleHost, GoogleURL, NewGoogleSearch}
}

// BingSearchApp returns the Bing-shaped engine plugin.
func BingSearchApp() registry.App {
	return searchApp{BingName, BingHost, BingURL, NewBingSearch}
}

// YahooSearchApp returns the Yahoo-shaped engine plugin.
func YahooSearchApp() registry.App {
	return searchApp{YSearchName, YSearchHost, YSearchURL, NewYahooSearch}
}

func init() {
	registry.MustRegisterApp(GoogleSearchApp())
	registry.MustRegisterApp(BingSearchApp())
	registry.MustRegisterApp(YahooSearchApp())
}

// Correcting is the spelling-correction strategy a search engine plugs
// in. Both spell.Corrector (word-level) and spell.QueryCorrector
// (query-level) satisfy it.
type Correcting interface {
	Correct(query string) (corrected string, changed bool)
}

// SearchEngine simulates one of the three Table I web search engines: a
// query form, a results page, and a spelling corrector whose power
// determines how many injected typos the engine detects and fixes.
//
// The three engines differ exactly where real ones do:
//
//   - Google corrects whole queries against its query logs (here, the 186
//     frequent-query corpus), so any single typo snaps back to the
//     original query — 100% in Table I;
//   - Yahoo corrects word-by-word within edit distance 2, but its
//     dictionary misses a slice of rarer terms — 84.4% in the paper;
//   - Bing corrects word-by-word within edit distance 1, so transposition
//     typos (Levenshtein distance 2) escape it — 59.1% in the paper.
type SearchEngine struct {
	// EngineName is the engine's display name ("Google", "Bing", "Yahoo!").
	EngineName string

	srv       *webapp.Server
	corrector Correcting

	mu   sync.Mutex
	data searchData
}

// searchData is the mutable state of an engine, declared once
// (registry.Declarer). The corrector is not part of it: it is an
// immutable, deterministic function of the engine, rebuilt by NewState.
type searchData struct {
	Queries []string `json:"queries"`
}

// queryCorpus is the shared frequent-query corpus the engines' language
// models are built from.
var queryCorpus = humanerr.Queries186

// The dictionaries are deterministic functions of the fixed corpus and
// read-only after construction, so they are built once per process and
// shared by every Env. Per-request engine state (served queries) stays
// per-Env; only the immutable language model is shared. Building them
// fresh used to dominate NewEnv — ~40% of a whole replay benchmark
// iteration went into re-sorting the same word list three times.
var (
	dictOnce   sync.Once
	fullDict   *spell.Dictionary
	prunedDict *spell.Dictionary
)

func corpusDictionaries() (full, pruned *spell.Dictionary) {
	dictOnce.Do(func() {
		fullDict = spell.NewDictionary(queryCorpus)
		prunedDict = fullDict.WithoutTail(15)
	})
	return fullDict, prunedDict
}

// The correctors are read-only too, and shared the same way: NewState
// runs on every fork, and the language model must not be rebuilt there.
var (
	googleCorrector = sync.OnceValue(func() Correcting {
		dict, _ := corpusDictionaries()
		word := spell.NewCorrector("google-words", dict, 2)
		return spell.NewQueryCorrector("google", queryCorpus, 4, word)
	})
	bingCorrector = sync.OnceValue(func() Correcting {
		dict, _ := corpusDictionaries()
		return spell.NewCorrector("bing", dict, 1)
	})
	yahooCorrector = sync.OnceValue(func() Correcting {
		_, pruned := corpusDictionaries()
		return spell.NewCorrector("yahoo", pruned, 2)
	})
)

// NewGoogleSearch returns the Google-shaped engine: query-level
// correction over the full query corpus with a word-level fallback.
func NewGoogleSearch() *SearchEngine { return newSearchEngine("Google", googleCorrector()) }

// NewBingSearch returns the Bing-shaped engine: word-level correction
// limited to edit distance 1.
func NewBingSearch() *SearchEngine { return newSearchEngine("Bing", bingCorrector()) }

// NewYahooSearch returns the Yahoo-shaped engine: word-level correction
// to edit distance 2 over a dictionary missing roughly one word in
// fifteen — the coverage that lands its detection rate in the paper's
// 84.4% band (the calibration is recorded in EXPERIMENTS.md).
func NewYahooSearch() *SearchEngine { return newSearchEngine("Yahoo!", yahooCorrector()) }

func newSearchEngine(name string, c Correcting) *SearchEngine {
	e := &SearchEngine{EngineName: name, corrector: c}
	srv := webapp.NewServer(name)
	srv.Handle("/", e.home)
	srv.Handle("/search", e.search)
	e.srv = srv
	return e
}

// Handler implements registry.AppState.
func (e *SearchEngine) Handler() netsim.Handler { return e.srv }

// Declare implements registry.Declarer.
func (e *SearchEngine) Declare() (*sync.Mutex, any, *webapp.Server) { return &e.mu, &e.data, e.srv }

// Queries returns the queries the engine has served, in order.
func (e *SearchEngine) Queries() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.data.Queries...)
}

// Correct exposes the engine's corrector (used by fast-path harnesses
// that bypass the browser).
func (e *SearchEngine) Correct(query string) (string, bool) {
	return e.corrector.Correct(query)
}

func (e *SearchEngine) home(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	body := fmt.Sprintf(`
<div id="logo">%s</div>
<form id="sf" action="/search" method="GET">
<input id="q" name="q">
<input type="submit" name="btn" value="Search">
</form>`, webapp.HTMLEscape(e.EngineName))
	return netsim.OK(webapp.Page(e.EngineName, body, ""))
}

// search renders the results page. When the corrector changed the query,
// the page carries a "Showing results for ..." banner in #corrected — the
// signal the Table I oracle reads.
func (e *SearchEngine) search(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	q := req.Form.Get("q")
	e.mu.Lock()
	e.data.Queries = append(e.data.Queries, q)
	e.mu.Unlock()

	corrected, changed := e.corrector.Correct(q)
	effective := q
	banner := ""
	if changed {
		effective = corrected
		banner = fmt.Sprintf(`<div id="corrected">%s</div>`, webapp.HTMLEscape(corrected))
	}

	body := fmt.Sprintf(`
<div id="logo">%s</div>
<div id="query">%s</div>
%s
<div id="results">About %d results for %s</div>`,
		webapp.HTMLEscape(e.EngineName), webapp.HTMLEscape(q), banner,
		resultCount(effective), webapp.HTMLEscape(effective))
	return netsim.OK(webapp.Page(e.EngineName+" Search", body, ""))
}

// resultCount is a deterministic pseudo-count so result pages are stable
// across runs.
func resultCount(q string) int {
	h := fnv.New32a()
	// hash.Hash32 Write never fails.
	_, _ = h.Write([]byte(q))
	return int(h.Sum32()%9_000_000) + 1_000_000
}
