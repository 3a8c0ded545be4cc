package dom_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	// Linking the calendar plugin registers its app; the corpus holds
	// its create-event archive.
	_ "github.com/dslab-epfl/warr/apps/calendar"
	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/htmlparse"
	"github.com/dslab-epfl/warr/internal/trace"
)

// indexKey is one query the differential check asks: a tag, or an
// attribute name=value pair.
type indexKey struct {
	tag         bool
	name, value string
}

// answers is what an index says about every probed key: counts, the
// bucket as a set of node paths, and the ByID winner.
type answers map[indexKey]string

// askIndex records ix's answers for every key.
func askIndex(ix *dom.QueryIndex, keys map[indexKey]bool) answers {
	out := make(answers, len(keys))
	for k := range keys {
		if k.tag {
			out[k] = fmt.Sprint(ix.CountTag(k.value))
			continue
		}
		var paths []string
		for _, n := range ix.NodesByAttr(k.name, k.value) {
			paths = append(paths, fmt.Sprintf("%p", n))
		}
		sort.Strings(paths)
		a := fmt.Sprintf("%d %v", ix.CountAttr(k.name, k.value), paths)
		if k.name == "id" {
			a += fmt.Sprintf(" first=%p", ix.ByID(k.value))
		}
		out[k] = a
	}
	return out
}

// rebuilt answers the same keys from doc's own tree, the way a freshly
// built index would: every attached element, in document order.
func rebuilt(doc *dom.Document, keys map[indexKey]bool) answers {
	tags := make(map[string]int)
	buckets := make(map[indexKey][]*dom.Node)
	doc.Root().Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		tags[n.Tag]++
		for _, a := range n.Attrs() {
			k := indexKey{name: a.Name, value: a.Value}
			buckets[k] = append(buckets[k], n)
		}
		return true
	})
	out := make(answers, len(keys))
	for k := range keys {
		if k.tag {
			out[k] = fmt.Sprint(tags[k.value])
			continue
		}
		var paths []string
		for _, n := range buckets[k] {
			paths = append(paths, fmt.Sprintf("%p", n))
		}
		sort.Strings(paths)
		a := fmt.Sprintf("%d %v", len(buckets[k]), paths)
		if k.name == "id" {
			var first *dom.Node
			if b := buckets[k]; len(b) > 0 {
				first = b[0]
			}
			a += fmt.Sprintf(" first=%p", first)
		}
		out[k] = a
	}
	return out
}

// noteKeys adds every tag and attribute pair now in doc to keys, so
// keys that later disappear keep being asked about.
func noteKeys(doc *dom.Document, keys map[indexKey]bool) {
	doc.Root().Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			keys[indexKey{tag: true, value: n.Tag}] = true
			for _, a := range n.Attrs() {
				keys[indexKey{name: a.Name, value: a.Value}] = true
			}
		}
		return true
	})
}

func sameAnswers(t *testing.T, label string, got, want answers) {
	t.Helper()
	for k, w := range want {
		if g := got[k]; g != w {
			t.Fatalf("%s: key %+v: index answers %q, want %q", label, k, g, w)
		}
	}
}

// mutator applies seeded random tree and attribute mutations to one
// document: append, insert, detach, move, set/remove attribute, re-id.
type mutator struct {
	rng *rand.Rand
	seq int
}

var (
	mutTags  = []string{"div", "span", "td", "a", "input"}
	mutAttrs = []string{"class", "name", "title", "data-k"}
	mutVals  = []string{"x", "y", "z"}
)

func (m *mutator) elements(doc *dom.Document) []*dom.Node {
	var out []*dom.Node
	if body := doc.Body(); body != nil {
		body.Walk(func(n *dom.Node) bool {
			if n.Type == dom.ElementNode {
				out = append(out, n)
			}
			return true
		})
	}
	return out
}

func (m *mutator) newElement() *dom.Node {
	m.seq++
	el := dom.NewElement(mutTags[m.rng.Intn(len(mutTags))],
		mutAttrs[m.rng.Intn(len(mutAttrs))], mutVals[m.rng.Intn(len(mutVals))])
	if m.rng.Intn(2) == 0 {
		el.SetAttr("id", fmt.Sprintf("m%d", m.seq%7)) // collisions on purpose
	}
	if m.rng.Intn(2) == 0 {
		el.AppendChild(dom.NewElement("b", "class", mutVals[m.rng.Intn(len(mutVals))]))
	}
	return el
}

func (m *mutator) step(doc *dom.Document) {
	els := m.elements(doc)
	if len(els) == 0 {
		return
	}
	pick := func() *dom.Node { return els[m.rng.Intn(len(els))] }
	body := doc.Body()
	switch m.rng.Intn(7) {
	case 0:
		pick().AppendChild(m.newElement())
	case 1:
		if p := pick(); p.NumChildren() > 0 {
			p.InsertBefore(m.newElement(), p.ChildAt(m.rng.Intn(p.NumChildren())))
		}
	case 2:
		if n := pick(); n != body {
			n.Detach()
		}
	case 3:
		if n, to := pick(), pick(); n != body && !n.Contains(to) {
			to.AppendChild(n)
		}
	case 4:
		pick().SetAttr(mutAttrs[m.rng.Intn(len(mutAttrs))], mutVals[m.rng.Intn(len(mutVals))])
	case 5:
		n := pick()
		if attrs := n.Attrs(); len(attrs) > 0 {
			n.RemoveAttr(attrs[m.rng.Intn(len(attrs))].Name)
		}
	case 6:
		m.seq++
		pick().SetAttr("id", fmt.Sprintf("m%d", m.seq%7))
	}
}

// differentialPages returns the start page of every corpus archive —
// each frame's document, as the browser built it — plus a synthetic
// page with duplicate ids, shared attribute values and a table.
func differentialPages(t *testing.T) map[string]*dom.Document {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("../../testdata/corpus", "*"+trace.ArchiveExt))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus archives: %v", err)
	}
	pages := map[string]*dom.Document{
		"synthetic": htmlparse.Parse(`<div id="a" class="c"><span id="a" class="c">one</span>
			<table><tr><td class="c">1</td><td name="n">2</td></tr></table></div>
			<input id="i" name="n" value="v"><iframe name="f"></iframe>`, "http://synthetic.test/"),
	}
	env := apps.NewEnv(browser.DeveloperMode)
	for _, path := range paths {
		_, tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		tab := env.Browser.NewTab()
		if err := tab.Navigate(tr.StartURL); err != nil {
			t.Fatalf("navigate %s: %v", tr.StartURL, err)
		}
		for i, f := range tab.MainFrame().Descendants() {
			pages[fmt.Sprintf("%s#%d", filepath.Base(path), i)] = f.Doc()
		}
	}
	return pages
}

// TestCloneIndexMatchesRebuild is the differential check of the
// copy-walk index: under seeded random mutation sequences, a clone's
// index must answer exactly as an index rebuilt from the clone's tree,
// carry the generation and event counters over, and stay independent
// of its source in both directions.
func TestCloneIndexMatchesRebuild(t *testing.T) {
	for name, page := range differentialPages(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				m := &mutator{rng: rand.New(rand.NewSource(seed))}
				doc := page.CloneWithIndex(nil)
				doc.Root().NoteEvent("click")
				keys := make(map[indexKey]bool)
				for step := 0; step < 25; step++ {
					m.step(doc)
					noteKeys(doc, keys)
					clone := doc.CloneWithIndex(nil)
					noteKeys(clone, keys)
					label := fmt.Sprintf("step %d", step)
					sameAnswers(t, label+" source", askIndex(doc.Index(), keys), rebuilt(doc, keys))
					sameAnswers(t, label+" clone", askIndex(clone.Index(), keys), rebuilt(clone, keys))

					src, dup := doc.Index(), clone.Index()
					if dup.Generation() != src.Generation() {
						t.Fatalf("%s: clone generation %d, source %d", label, dup.Generation(), src.Generation())
					}
					if got, want := events(dup), events(src); got != want {
						t.Fatalf("%s: clone events %s, source %s", label, got, want)
					}

					// Mutating either side leaves the other's answers alone.
					before := askIndex(src, keys)
					m.step(clone)
					noteKeys(clone, keys)
					sameAnswers(t, label+" source after clone mutation", askIndex(src, keys), before)
					sameAnswers(t, label+" mutated clone", askIndex(dup, keys), rebuilt(clone, keys))
					before = askIndex(dup, keys)
					m.step(doc)
					noteKeys(doc, keys)
					sameAnswers(t, label+" clone after source mutation", askIndex(dup, keys), before)
				}
			})
		}
	}
}

// events renders an index's event counters in a fixed order.
func events(ix *dom.QueryIndex) string {
	var out []string
	ix.VisitEvents(func(k dom.EventKey, c uint64) {
		out = append(out, fmt.Sprintf("%v=%d", k, c))
	})
	sort.Strings(out)
	return fmt.Sprint(out)
}
