package layout_test

import (
	"fmt"
	"testing"

	// Linking the calendar plugin registers its app, so its start page
	// is among the registered apps checked below.
	_ "github.com/dslab-epfl/warr/apps/calendar"
	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/htmlparse"
	"github.com/dslab-epfl/warr/internal/layout"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/vclock"
)

// TestHitTestRoundTripAllElements checks the property the click
// coordinate fallback relies on: for every visible element, hit-testing
// its center returns the element itself or a descendant. It runs on a
// small page, on the start page of every registered app, and through
// the tab (iframe offsets included) on a page with an iframe.
func TestHitTestRoundTripAllElements(t *testing.T) {
	d := htmlparse.Parse(`
		<div id="a">text
			<div id="b"><span id="c">s</span></div>
			<table><tr><td id="d">1</td><td id="e">2</td></tr></table>
		</div>`, "u")
	l := layout.Compute(d, 800)
	for _, id := range []string{"b", "c", "d", "e"} {
		n := d.GetElementByID(id)
		x, y := l.Center(n)
		hit := l.HitTest(x, y)
		if hit == nil || !n.Contains(hit) {
			t.Errorf("HitTest center of #%s = %v", id, hit)
		}
	}

	env := apps.NewEnv(browser.DeveloperMode)
	for _, app := range registry.Apps() {
		tab := env.Browser.NewTab()
		if err := tab.Navigate(app.StartURL()); err != nil {
			t.Fatalf("navigate %s: %v", app.StartURL(), err)
		}
		if out := roundTripTab(t, app.StartURL(), tab); len(out) > 0 {
			t.Errorf("%s: elements outside their iframe's box: %v", app.StartURL(), out)
		}
	}

	clock := vclock.New()
	network := netsim.New(clock)
	pages := map[string]string{
		"/":      `<div id="top">top</div><iframe src="/inner" name="child"></iframe><div id="after">after</div>`,
		"/inner": `<div id="in">inner<span id="deep">deep</span></div><button id="go">Go</button>`,
	}
	network.Register("app.test", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		if body, ok := pages[req.Path()]; ok {
			return netsim.OK(body)
		}
		return netsim.NotFound()
	}))
	tab := browser.New(clock, network, browser.UserMode).NewTab()
	if err := tab.Navigate("http://app.test/"); err != nil {
		t.Fatal(err)
	}
	if len(tab.MainFrame().Children()) != 1 {
		t.Fatal("iframe page did not load its child frame")
	}
	// An iframe's box is laid out as an empty one-line block, whatever
	// its document holds: the parent's layout does not size it from the
	// child frame. So the child content below that first line has window
	// centers outside the iframe and cannot be hit. This pins the gap;
	// sizing iframes from their documents must empty the list.
	got := fmt.Sprint(roundTripTab(t, "iframe page", tab))
	if want := "[html/body html/body/div#in html/body/div#in/span#deep html/body/button#go]"; got != want {
		t.Errorf("iframe page: elements outside their iframe's box = %s, want %s", got, want)
	}
}

// roundTripTab hit-tests, through the tab, the window center of every
// visible element of every frame. It returns, without hit-testing them,
// the paths of child-frame elements whose center lies outside their
// iframe's box.
func roundTripTab(t *testing.T, page string, tab *browser.Tab) (outside []string) {
	t.Helper()
	checked := 0
	for _, f := range tab.MainFrame().Descendants() {
		l := frameLayout(tab, f)
		f.Doc().Root().Walk(func(el *dom.Node) bool {
			if el.Type != dom.ElementNode {
				return true
			}
			if el.Tag == "iframe" {
				return false // its center hits the child frame's content
			}
			if b, ok := l.BoxOf(el); !ok || b.W == 0 || b.H == 0 {
				return true
			}
			x, y, ok := tab.AbsoluteCenter(f, el)
			if !ok {
				t.Errorf("%s: no window center for visible %s", page, el.Path())
				return true
			}
			if !insideIframes(tab, f, x, y) {
				outside = append(outside, el.Path())
				return true
			}
			hf, hit := tab.HitTest(x, y)
			// A hit inside a child frame counts as a hit on its iframe.
			for hf != nil && hf != f {
				hit, hf = hf.Element(), hf.Parent()
			}
			if hit == nil || !el.Contains(hit) {
				t.Errorf("%s: HitTest at the center of %s = %v", page, el.Path(), hit)
			}
			checked++
			return true
		})
	}
	if checked == 0 {
		t.Errorf("%s: no visible element checked", page)
	}
	return outside
}

// insideIframes reports whether window point (x, y) lies inside the box
// of every iframe between the main frame and f.
func insideIframes(tab *browser.Tab, f *browser.Frame, x, y int) bool {
	for ; f.Parent() != nil; f = f.Parent() {
		box, _ := frameLayout(tab, f.Parent()).BoxOf(f.Element())
		ox, oy, _ := tab.AbsoluteCenter(f.Parent(), f.Element())
		box.X, box.Y = ox-box.W/2, oy-box.H/2
		if !box.Contains(x, y) {
			return false
		}
	}
	return true
}

// frameLayout returns f's layout at the width the tab lays it out with:
// the viewport for the main frame, its iframe's box width otherwise.
func frameLayout(tab *browser.Tab, f *browser.Frame) *layout.Layout {
	if f.Parent() == nil {
		return tab.Layout()
	}
	box, _ := frameLayout(tab, f.Parent()).BoxOf(f.Element())
	return f.Layout(box.W)
}
