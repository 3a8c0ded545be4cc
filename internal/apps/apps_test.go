package apps

import (
	"strings"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
)

// runScenario navigates a fresh tab to the scenario's start page, runs
// it, and applies its oracle.
func runScenario(t *testing.T, sc Scenario) (*Env, *browser.Tab) {
	t.Helper()
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(sc.StartURL); err != nil {
		t.Fatalf("Navigate(%q): %v", sc.StartURL, err)
	}
	if err := sc.Run(env, tab); err != nil {
		t.Fatalf("scenario %q run: %v", sc.Name, err)
	}
	if err := sc.Verify(env, tab); err != nil {
		t.Fatalf("scenario %q verify: %v", sc.Name, err)
	}
	return env, tab
}

func TestEditSiteScenario(t *testing.T) {
	env, tab := runScenario(t, EditSiteScenario())
	if got := SitesIn(env).Saves(); got != 1 {
		t.Errorf("saves = %d, want 1", got)
	}
	// After the save redirect the view shows the new content.
	view := findFirst(tab, byID("view"))
	if view == nil || strings.TrimSpace(view.TextContent()) != "Hello world!" {
		t.Errorf("view shows %q", view.TextContent())
	}
	if errs := tab.ConsoleErrors(); len(errs) != 0 {
		t.Errorf("console errors: %+v", errs)
	}
}

func TestEditSiteImpatientUserHitsUninitializedVariable(t *testing.T) {
	// The §V-C bug: clicking Save before the asynchronously loaded editor
	// initializes the `editor` variable raises a TypeError.
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(SitesURL); err != nil {
		t.Fatal(err)
	}
	if err := clickID(tab, "start"); err != nil {
		t.Fatal(err)
	}
	// No wait: the editor module (DefaultAJAXLatency away) has not
	// arrived when the user saves.
	if err := clickText(tab, "div", "Save"); err != nil {
		t.Fatal(err)
	}
	errs := tab.ConsoleErrors()
	if len(errs) == 0 {
		t.Fatal("expected a console error from the uninitialized editor variable")
	}
	if !strings.Contains(errs[0].Message, "TypeError") {
		t.Errorf("console error = %q, want a TypeError", errs[0].Message)
	}
	if got := SitesIn(env).Saves(); got != 0 {
		t.Errorf("saves = %d, want 0 (the save must fail)", got)
	}
}

func TestEditSitePatientUserSucceeds(t *testing.T) {
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(SitesURL); err != nil {
		t.Fatal(err)
	}
	if err := clickID(tab, "start"); err != nil {
		t.Fatal(err)
	}
	tab.AdvanceTime(2 * DefaultAJAXLatency)
	// The loaded editor is seeded and focused; typing goes to #content.
	tab.TypeText("ok")
	if err := clickText(tab, "div", "Save"); err != nil {
		t.Fatal(err)
	}
	if got := SitesIn(env).PageContent("home"); got != "ok" {
		t.Errorf("content = %q, want %q", got, "ok")
	}
}

func TestSitesEditorSeedsExistingContent(t *testing.T) {
	env := NewEnv(browser.UserMode)
	SitesIn(env).SetPageContent("home", "old text")
	tab := env.Browser.NewTab()
	if err := tab.Navigate(SitesURL); err != nil {
		t.Fatal(err)
	}
	if err := clickID(tab, "start"); err != nil {
		t.Fatal(err)
	}
	tab.AdvanceTime(2 * DefaultAJAXLatency)
	content := findFirst(tab, byID("content"))
	if content == nil || content.TextContent() != "old text" {
		t.Fatalf("editor seeded with %q", content.TextContent())
	}
}

func TestComposeEmailScenario(t *testing.T) {
	env, _ := runScenario(t, ComposeEmailScenario())
	mails := GMailIn(env).Sent()
	if len(mails) != 1 {
		t.Fatalf("sent %d mails, want 1", len(mails))
	}
}

func TestGMailRegeneratesIDs(t *testing.T) {
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(GMailURL); err != nil {
		t.Fatal(err)
	}
	_, first := locate(tab, byName("compose"))
	if first == nil {
		t.Fatal("no compose button")
	}
	firstID := first.ID()

	tab2 := env.Browser.NewTab()
	if err := tab2.Navigate(GMailURL); err != nil {
		t.Fatal(err)
	}
	_, second := locate(tab2, byName("compose"))
	if second == nil {
		t.Fatal("no compose button on second load")
	}
	if firstID == second.ID() {
		t.Errorf("compose button id stable across loads (%q); GMail must regenerate ids", firstID)
	}
}

// TestGMailRootRedirectsToInbox: a visit to the bare host lands on the
// mailbox, compose chrome and all.
func TestGMailRootRedirectsToInbox(t *testing.T) {
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate("https://" + GMailHost + "/"); err != nil {
		t.Fatal(err)
	}
	if got := tab.URL(); got != GMailURL {
		t.Errorf("landed on %q, want %q", got, GMailURL)
	}
	if _, compose := locate(tab, byName("compose")); compose == nil {
		t.Error("no compose button after the redirect")
	}
}

func TestGMailDragMarksHeader(t *testing.T) {
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(GMailURL); err != nil {
		t.Fatal(err)
	}
	if err := clickName(tab, "compose"); err != nil {
		t.Fatal(err)
	}
	if err := dragName(tab, "composehdr", 30, 20); err != nil {
		t.Fatal(err)
	}
	_, hdr := locate(tab, byName("composehdr"))
	if got := hdr.AttrOr("data-dx", ""); got != "30" {
		t.Errorf("data-dx = %q, want 30", got)
	}
	if got := hdr.AttrOr("data-dy", ""); got != "20" {
		t.Errorf("data-dy = %q, want 20", got)
	}
}

func TestAuthenticateScenario(t *testing.T) {
	_, tab := runScenario(t, AuthenticateScenario())
	welcome := findFirst(tab, byID("welcome"))
	if welcome == nil {
		t.Fatal("no welcome banner after sign-in")
	}
	if got := strings.TrimSpace(welcome.TextContent()); got != "Welcome, silviu" {
		t.Errorf("welcome = %q", got)
	}
}

func TestYahooRejectsEmptyPassword(t *testing.T) {
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(YahooURL); err != nil {
		t.Fatal(err)
	}
	if err := clickID(tab, "u"); err != nil {
		t.Fatal(err)
	}
	tab.TypeText("silviu")
	if err := clickName(tab, "signin"); err != nil {
		t.Fatal(err)
	}
	if YahooIn(env).Logins() != 0 {
		t.Error("login accepted with empty password")
	}
	if findFirst(tab, byID("loginerr")) == nil {
		t.Error("no error banner shown")
	}
}

func TestEditSpreadsheetScenario(t *testing.T) {
	env, _ := runScenario(t, EditSpreadsheetScenario())
	if got := DocsIn(env).Cell("r2c2"); got != "42" {
		t.Errorf("r2c2 = %q", got)
	}
}

func TestDocsSingleClickDoesNotEdit(t *testing.T) {
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(DocsURL); err != nil {
		t.Fatal(err)
	}
	if err := clickID(tab, "r2c2"); err != nil { // single click only
		t.Fatal(err)
	}
	tab.TypeText("99")
	pressEnter(tab)
	if got := DocsIn(env).Cell("r2c2"); got != "" {
		t.Errorf("r2c2 = %q, want unchanged empty value", got)
	}
}

func TestDocsKeepsOtherCells(t *testing.T) {
	env, _ := runScenario(t, EditSpreadsheetScenario())
	if got := DocsIn(env).Cell("r1c1"); got != "Item" {
		t.Errorf("r1c1 = %q, want seeded label", got)
	}
	if got := len(DocsIn(env).Cells()); got < 5 {
		t.Errorf("cells = %d, want seeded + edited", got)
	}
}

func TestSearchEnginesCorrectTypos(t *testing.T) {
	env := NewEnv(browser.UserMode)
	const original = "facebook privacy settings"
	const typoed = "facebook pricavy settings" // transposition, distance 2

	cases := []struct {
		engine    *SearchEngine
		wantFixed bool
	}{
		{GoogleIn(env), true},  // query-level correction
		{BingIn(env), false},   // distance-1 corrector misses transpositions
		{YSearchIn(env), true}, // distance-2 word corrector
	}
	for _, c := range cases {
		got, changed := c.engine.Correct(typoed)
		fixed := changed && got == original
		if fixed != c.wantFixed {
			t.Errorf("%s.Correct(%q) = %q (changed=%v), want fixed=%v",
				c.engine.EngineName, typoed, got, changed, c.wantFixed)
		}
	}
}

func TestSearchScenarioRendersCorrectionBanner(t *testing.T) {
	env := NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	sc := SearchScenario(GoogleURL, "facebook pricavy settings")
	if err := tab.Navigate(sc.StartURL); err != nil {
		t.Fatal(err)
	}
	if err := sc.Run(env, tab); err != nil {
		t.Fatal(err)
	}
	banner := findFirst(tab, byID("corrected"))
	if banner == nil {
		t.Fatal("no correction banner")
	}
	if got := strings.TrimSpace(banner.TextContent()); got != "facebook privacy settings" {
		t.Errorf("banner = %q", got)
	}
	if qs := GoogleIn(env).Queries(); len(qs) != 1 || qs[0] != "facebook pricavy settings" {
		t.Errorf("served queries = %v", qs)
	}
}

func TestSearchKnownQueryNotChanged(t *testing.T) {
	env := NewEnv(browser.UserMode)
	for _, e := range SearchEnginesIn(env) {
		got, changed := e.Correct("facebook privacy settings")
		if changed {
			t.Errorf("%s changed a correct query to %q", e.EngineName, got)
		}
	}
}

func TestEnvIsolation(t *testing.T) {
	a := NewEnv(browser.UserMode)
	b := NewEnv(browser.UserMode)
	SitesIn(a).SetPageContent("home", "A")
	if got := SitesIn(b).PageContent("home"); got != "" {
		t.Errorf("env B sees env A's state: %q", got)
	}
	a.Clock.Advance(time.Hour)
	if !b.Clock.Now().Before(a.Clock.Now()) {
		t.Error("clocks are shared between envs")
	}
}
