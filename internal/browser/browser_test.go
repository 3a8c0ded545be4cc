package browser

import (
	"strings"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/event"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/vclock"
)

// testEnv wires a clock, network, and browser around a set of pages.
type testEnv struct {
	clock   *vclock.Clock
	network *netsim.Network
	browser *Browser
	tab     *Tab
}

func newEnv(t *testing.T, mode Mode, pages map[string]string) *testEnv {
	t.Helper()
	clock := vclock.New()
	network := netsim.New(clock)
	network.Register("app.test", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		if body, ok := pages[req.Path()]; ok {
			return netsim.OK(body)
		}
		return netsim.NotFound()
	}))
	b := New(clock, network, mode)
	return &testEnv{clock: clock, network: network, browser: b, tab: b.NewTab()}
}

func (e *testEnv) navigate(t *testing.T, url string) {
	t.Helper()
	if err := e.tab.Navigate(url); err != nil {
		t.Fatalf("Navigate(%q): %v", url, err)
	}
}

func TestNavigateLoadsDocument(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<html><head><title>Home</title></head><body><div id="x">hi</div></body></html>`,
	})
	env.navigate(t, "http://app.test/")
	if got := env.tab.Title(); got != "Home" {
		t.Errorf("Title = %q", got)
	}
	if env.tab.MainFrame().Doc().GetElementByID("x") == nil {
		t.Error("document content missing")
	}
	if got := env.tab.URL(); got != "http://app.test/" {
		t.Errorf("URL = %q", got)
	}
}

func TestScriptsRunAtLoad(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="out">before</div><script>
			document.getElementById("out").textContent = "after";
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	if got := env.tab.MainFrame().Doc().GetElementByID("out").TextContent(); got != "after" {
		t.Errorf("script did not run: %q", got)
	}
}

func TestScriptErrorGoesToConsole(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div></div><script>var broken; broken.use();</script>`,
	})
	env.navigate(t, "http://app.test/")
	errs := env.tab.ConsoleErrors()
	if len(errs) != 1 || !strings.Contains(errs[0].Message, "TypeError") {
		t.Fatalf("console errors = %+v", errs)
	}
}

func TestClickRunsListener(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<button id="b">Go</button><div id="out"></div><script>
			document.getElementById("b").addEventListener("click", function(e) {
				document.getElementById("out").textContent = "clicked:" + e.type;
			});
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	btn := env.tab.MainFrame().Doc().GetElementByID("b")
	x, y := env.tab.Layout().Center(btn)
	env.tab.Click(x, y)
	if got := env.tab.MainFrame().Doc().GetElementByID("out").TextContent(); got != "clicked:click" {
		t.Errorf("out = %q", got)
	}
}

func TestInlineOnclick(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<button id="b" onclick="document.getElementById('out').textContent = 'inline'">Go</button><div id="out"></div>`,
	})
	env.navigate(t, "http://app.test/")
	btn := env.tab.MainFrame().Doc().GetElementByID("b")
	x, y := env.tab.Layout().Center(btn)
	env.tab.Click(x, y)
	if got := env.tab.MainFrame().Doc().GetElementByID("out").TextContent(); got != "inline" {
		t.Errorf("out = %q", got)
	}
}

// TestInlineHandlersWireInFixedOrder pins the registration order forks
// replay: document order, then inlineHandlerAttrs order on each element
// whatever the attribute order, skipping blank handlers and elements
// whose only on-prefixed attribute is not a handler.
func TestInlineHandlersWireInFixedOrder(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="a" one="x" title="t"></div>` +
			`<input id="b" onblur="1" oninput=" " onkeydown="2" ONCLICK="3">` +
			`<span id="c"><i id="d" ondrag="4"></i></span>`,
	})
	env.navigate(t, "http://app.test/")
	var got []string
	for _, rec := range env.tab.MainFrame().listenerLog {
		got = append(got, rec.node.ID()+":"+rec.typ+":"+rec.src)
	}
	want := []string{"b:click:3", "b:keydown:2", "b:blur:1", "d:drag:4"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("listener log = %v, want %v", got, want)
	}
}

func TestTypeIntoInput(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<form action="/s"><input type="text" id="q" name="q"></form>`,
	})
	env.navigate(t, "http://app.test/")
	in := env.tab.MainFrame().Doc().GetElementByID("q")
	x, y := env.tab.Layout().Center(in)
	env.tab.Click(x, y)
	env.tab.TypeText("hello")
	if in.Value != "hello" {
		t.Errorf("input value = %q", in.Value)
	}
}

func TestTypeIntoContentEditable(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="ed" contenteditable="true"></div>`,
	})
	env.navigate(t, "http://app.test/")
	ed := env.tab.MainFrame().Doc().GetElementByID("ed")
	x, y := env.tab.Layout().Center(ed)
	env.tab.Click(x, y)
	env.tab.TypeText("Hello world!")
	if got := ed.TextContent(); got != "Hello world!" {
		t.Errorf("contenteditable text = %q", got)
	}
}

func TestShiftProducesTwoKeystrokes(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="ed" contenteditable="true"></div><script>
			var codes = [];
			document.getElementById("ed").addEventListener("keydown", function(e) {
				codes.push(e.keyCode);
				document.getElementById("ed").setAttribute("data-codes", codes.join(","));
			});
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	ed := env.tab.MainFrame().Doc().GetElementByID("ed")
	x, y := env.tab.Layout().Center(ed)
	env.tab.Click(x, y)
	env.tab.TypeText("H")
	got, _ := ed.Attr("data-codes")
	// Chrome registers Shift (16) and then the printable key (72).
	if got != "16,72" {
		t.Errorf("keydown codes = %q, want \"16,72\"", got)
	}
	if ed.TextContent() != "H" {
		t.Errorf("text = %q", ed.TextContent())
	}
}

func TestBackspaceDeletes(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<input type="text" id="q">`,
	})
	env.navigate(t, "http://app.test/")
	in := env.tab.MainFrame().Doc().GetElementByID("q")
	x, y := env.tab.Layout().Center(in)
	env.tab.Click(x, y)
	env.tab.TypeText("ab")
	env.tab.PressKey(KeyBackspace, CodeBackspace, KeyMods{})
	if in.Value != "a" {
		t.Errorf("value = %q, want a", in.Value)
	}
}

func TestLinkNavigation(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":     `<a id="go" href="/next">next</a>`,
		"/next": `<html><head><title>Next</title></head><body>arrived</body></html>`,
	})
	env.navigate(t, "http://app.test/")
	a := env.tab.MainFrame().Doc().GetElementByID("go")
	x, y := env.tab.Layout().Center(a)
	env.tab.Click(x, y)
	if got := env.tab.Title(); got != "Next" {
		t.Errorf("Title = %q, want Next", got)
	}
	if got := env.tab.URL(); got != "http://app.test/next" {
		t.Errorf("URL = %q", got)
	}
}

func TestFormSubmitViaButton(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":       `<form action="/search"><input type="text" name="q" id="q"><input type="submit" id="go" value="Search"></form>`,
		"/search": `<html><head><title>Results</title></head><body>ok</body></html>`,
	})
	env.navigate(t, "http://app.test/")
	doc := env.tab.MainFrame().Doc()
	q := doc.GetElementByID("q")
	x, y := env.tab.Layout().Center(q)
	env.tab.Click(x, y)
	env.tab.TypeText("warr")
	go_, _ := doc.GetElementByID("go"), 0
	x, y = env.tab.Layout().Center(go_)
	env.tab.Click(x, y)
	if got := env.tab.URL(); got != "http://app.test/search?q=warr" {
		t.Errorf("URL = %q", got)
	}
}

func TestFormSubmitViaEnter(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":       `<form action="/search"><input type="text" name="q" id="q"></form>`,
		"/search": `<body>ok</body>`,
	})
	env.navigate(t, "http://app.test/")
	in := env.tab.MainFrame().Doc().GetElementByID("q")
	x, y := env.tab.Layout().Center(in)
	env.tab.Click(x, y)
	env.tab.TypeText("go")
	env.tab.PressKey(KeyEnter, CodeEnter, KeyMods{})
	if got := env.tab.URL(); got != "http://app.test/search?q=go" {
		t.Errorf("URL = %q", got)
	}
}

func TestSetTimeoutFiresOnClockAdvance(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="out">waiting</div><script>
			setTimeout(function() {
				document.getElementById("out").textContent = "done";
			}, 1000);
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	out := env.tab.MainFrame().Doc().GetElementByID("out")
	if out.TextContent() != "waiting" {
		t.Fatal("timer fired prematurely")
	}
	env.tab.AdvanceTime(999 * time.Millisecond)
	if out.TextContent() != "waiting" {
		t.Fatal("timer fired early")
	}
	env.tab.AdvanceTime(time.Millisecond)
	if got := out.TextContent(); got != "done" {
		t.Errorf("out = %q", got)
	}
}

func TestTimersOfUnloadedPageDoNotRun(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":     `<script>setTimeout(function() { console.log("ghost"); }, 1000);</script>`,
		"/next": `<body>next</body>`,
	})
	env.navigate(t, "http://app.test/")
	env.navigate(t, "http://app.test/next")
	env.tab.AdvanceTime(2 * time.Second)
	for _, e := range env.tab.Console() {
		if strings.Contains(e.Message, "ghost") {
			t.Fatal("unloaded frame's timer ran")
		}
	}
}

func TestHTTPGetAJAX(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="out"></div><script>
			httpGet("/data", function(body, status) {
				document.getElementById("out").textContent = body + ":" + status;
			});
		</script>`,
		"/data": `payload`,
	})
	env.network.SetLatency(500 * time.Millisecond)
	env.navigate(t, "http://app.test/")
	out := env.tab.MainFrame().Doc().GetElementByID("out")
	if out.TextContent() != "" {
		t.Fatal("AJAX delivered synchronously")
	}
	env.tab.AdvanceTime(time.Second)
	if got := out.TextContent(); got != "payload:200" {
		t.Errorf("out = %q", got)
	}
}

func TestConsoleLogBinding(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<script>console.log("a", 1, true);</script>`,
	})
	env.navigate(t, "http://app.test/")
	logs := env.tab.Console()
	if len(logs) != 1 || logs[0].Message != "a 1 true" || logs[0].Level != ConsoleLog {
		t.Fatalf("console = %+v", logs)
	}
}

func TestAlertOpensPopupAndBlocksEngine(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<button id="b" onclick="alert('warning!')">Go</button><div id="out"></div>`,
	})
	env.navigate(t, "http://app.test/")
	doc := env.tab.MainFrame().Doc()
	btn := doc.GetElementByID("b")
	x, y := env.tab.Layout().Center(btn)
	env.tab.Click(x, y)
	if text, open := env.tab.PopupText(); !open || text != "warning!" {
		t.Fatalf("popup = %q,%v", text, open)
	}
	// A click while the popup is open dismisses it without reaching the
	// engine (the §IV-D recorder limitation).
	var sawEngineEvent bool
	env.tab.EventHandler().SetRecorder(recorderFunc(func() { sawEngineEvent = true }))
	env.tab.Click(x, y)
	if _, open := env.tab.PopupText(); open {
		t.Fatal("popup not dismissed")
	}
	if sawEngineEvent {
		t.Fatal("popup click leaked into the engine")
	}
}

// recorderFunc adapts a func to RecorderHook for popup testing.
type recorderFunc func()

func (f recorderFunc) OnMousePress(*Frame, *dom.Node, int, int, int) { f() }
func (f recorderFunc) OnKey(*Frame, *dom.Node, string, int, KeyMods) { f() }
func (f recorderFunc) OnDrag(*Frame, *dom.Node, int, int)            { f() }

func TestIframeWithSrcLoads(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":      `<div>parent</div><iframe src="/inner" name="child"></iframe>`,
		"/inner": `<div id="deep">inner content</div>`,
	})
	env.navigate(t, "http://app.test/")
	main := env.tab.MainFrame()
	if len(main.Children()) != 1 {
		t.Fatalf("child frames = %d", len(main.Children()))
	}
	child := main.Children()[0]
	if !child.HasSrc() || child.Name() != "child" {
		t.Errorf("child frame meta: hasSrc=%v name=%q", child.HasSrc(), child.Name())
	}
	if child.Doc().GetElementByID("deep") == nil {
		t.Error("iframe content missing")
	}
	if main.FrameByName("child") != child {
		t.Error("FrameByName failed")
	}
}

func TestSrclessIframeContent(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<iframe id="f"><div id="compose" contenteditable="true"></div></iframe>`,
	})
	env.navigate(t, "http://app.test/")
	child := env.tab.MainFrame().Children()[0]
	if child.HasSrc() {
		t.Error("src-less frame marked hasSrc")
	}
	if child.Doc().GetElementByID("compose") == nil {
		t.Error("inline iframe content not adopted")
	}
}

func TestTypingInsideIframe(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":      `<div>top</div><iframe src="/inner" name="body"></iframe>`,
		"/inner": `<div id="ed" contenteditable="true"></div>`,
	})
	env.navigate(t, "http://app.test/")
	child := env.tab.MainFrame().Children()[0]
	ed := child.Doc().GetElementByID("ed")
	x, y, ok := env.tab.AbsoluteCenter(child, ed)
	if !ok {
		t.Fatal("no absolute center for iframe element")
	}
	env.tab.Click(x, y)
	env.tab.TypeText("hi")
	if got := ed.TextContent(); got != "hi" {
		t.Errorf("iframe text = %q", got)
	}
}

func TestHitTestDescendsIntoIframe(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":      `<iframe src="/inner"></iframe>`,
		"/inner": `<button id="deepbtn">Deep</button>`,
	})
	env.navigate(t, "http://app.test/")
	child := env.tab.MainFrame().Children()[0]
	btn := child.Doc().GetElementByID("deepbtn")
	x, y, _ := env.tab.AbsoluteCenter(child, btn)
	frame, target := env.tab.HitTest(x, y)
	if frame != child || target != btn {
		t.Fatalf("HitTest = (%v, %v), want child frame button", frame, target)
	}
}

func TestFrameObserverScrambledOrdering(t *testing.T) {
	// Navigation must emit the NEW frame's load before the OLD frames'
	// unloads — the ordering Chrome does not guarantee and that broke
	// ChromeDriver's active-client selection (paper §IV-C).
	env := newEnv(t, UserMode, map[string]string{
		"/a": `<body>a</body>`,
		"/b": `<body>b</body>`,
	})
	var events []string
	env.tab.AddFrameObserver(observerFunc{
		loaded:   func(f *Frame) { events = append(events, "load:"+f.Doc().URL) },
		unloaded: func(f *Frame) { events = append(events, "unload:"+f.Doc().URL) },
	})
	env.navigate(t, "http://app.test/a")
	env.navigate(t, "http://app.test/b")
	var loadB, unloadA int = -1, -1
	for i, e := range events {
		if e == "load:http://app.test/b" {
			loadB = i
		}
		if e == "unload:http://app.test/a" {
			unloadA = i
		}
	}
	if loadB == -1 || unloadA == -1 {
		t.Fatalf("events = %v", events)
	}
	if loadB > unloadA {
		t.Fatalf("expected load-before-unload scrambling, events = %v", events)
	}
}

type observerFunc struct {
	loaded   func(*Frame)
	unloaded func(*Frame)
}

func (o observerFunc) FrameLoaded(f *Frame)   { o.loaded(f) }
func (o observerFunc) FrameUnloaded(f *Frame) { o.unloaded(f) }

func TestLocationHrefNavigation(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/":     `<button id="go" onclick="window.location.href = '/dest'">go</button>`,
		"/dest": `<html><head><title>Dest</title></head><body></body></html>`,
	})
	env.navigate(t, "http://app.test/")
	btn := env.tab.MainFrame().Doc().GetElementByID("go")
	x, y := env.tab.Layout().Center(btn)
	env.tab.Click(x, y)
	if env.tab.Title() != "Dest" {
		t.Errorf("Title = %q", env.tab.Title())
	}
}

func TestRedirectFollowed(t *testing.T) {
	clock := vclock.New()
	network := netsim.New(clock)
	network.Register("app.test", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		switch req.Path() {
		case "/":
			return &netsim.Response{Status: 302, Header: map[string]string{"Location": "http://app.test/final"}}
		case "/final":
			return netsim.OK(`<html><head><title>Final</title></head><body></body></html>`)
		}
		return netsim.NotFound()
	}))
	b := New(clock, network, UserMode)
	tab := b.NewTab()
	if err := tab.Navigate("http://app.test/"); err != nil {
		t.Fatal(err)
	}
	if tab.Title() != "Final" || tab.URL() != "http://app.test/final" {
		t.Fatalf("title=%q url=%q", tab.Title(), tab.URL())
	}
}

func TestRedirectLoopFails(t *testing.T) {
	clock := vclock.New()
	network := netsim.New(clock)
	network.Register("app.test", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		return &netsim.Response{Status: 302, Header: map[string]string{"Location": "http://app.test/"}}
	}))
	b := New(clock, network, UserMode)
	if err := b.NewTab().Navigate("http://app.test/"); err == nil {
		t.Fatal("redirect loop did not fail")
	}
}

func TestCookiesPersistAcrossNavigations(t *testing.T) {
	clock := vclock.New()
	network := netsim.New(clock)
	network.Register("app.test", netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		if req.Path() == "/set" {
			r := netsim.OK("<body>set</body>")
			r.Header["Set-Cookie"] = "sid=abc123"
			return r
		}
		return netsim.OK("<body>cookie=" + req.Header["Cookie"] + "</body>")
	}))
	b := New(clock, network, UserMode)
	tab := b.NewTab()
	if err := tab.Navigate("http://app.test/set"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Navigate("http://app.test/check"); err != nil {
		t.Fatal(err)
	}
	if got := tab.MainFrame().Doc().Body().TextContent(); !strings.Contains(got, "sid=abc123") {
		t.Fatalf("cookie not sent: %q", got)
	}
}

func TestDoubleClickFiresDblclick(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="cell">v</div><script>
			document.getElementById("cell").addEventListener("dblclick", function(e) {
				e.target.textContent = "editing";
			});
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	cell := env.tab.MainFrame().Doc().GetElementByID("cell")
	x, y := env.tab.Layout().Center(cell)
	env.tab.DoubleClick(x, y)
	if got := cell.TextContent(); got != "editing" {
		t.Errorf("cell = %q", got)
	}
}

func TestStackCaptureShowsEventPath(t *testing.T) {
	// Fig. 3 reproduction: the call chain through the layers must be
	// visible in a stack captured inside HandleMousePressEvent.
	env := newEnv(t, UserMode, map[string]string{
		"/": `<button id="b">x</button>`,
	})
	env.navigate(t, "http://app.test/")
	env.tab.EventHandler().CaptureStackOnNextPress()
	btn := env.tab.MainFrame().Doc().GetElementByID("b")
	x, y := env.tab.Layout().Center(btn)
	env.tab.Click(x, y)
	stack := strings.Join(env.tab.EventHandler().LastStack(), "\n")
	for _, fn := range []string{"HandleMousePressEvent", "HandleInputEvent", "OnMessageReceived"} {
		if !strings.Contains(stack, fn) {
			t.Errorf("stack missing %s:\n%s", fn, stack)
		}
	}
}

func TestSyntheticKeyEventModePolicy(t *testing.T) {
	page := map[string]string{"/": `<input id="i" type="text">`}

	// User mode: synthetic keyboard events cannot carry key data.
	user := newEnv(t, UserMode, page)
	user.navigate(t, "http://app.test/")
	e := event.NewSynthetic(event.TypeKeyPress, user.tab.MainFrame().Doc().GetElementByID("i"), user.browser.Mode() == DeveloperMode)
	if err := e.SetKeyData(event.KeyData{Code: 72}); err == nil {
		t.Fatal("user-mode synthetic key data was settable")
	}

	// Developer mode (the WaRR Replayer's browser): settable.
	dev := newEnv(t, DeveloperMode, page)
	dev.navigate(t, "http://app.test/")
	e2 := event.NewSynthetic(event.TypeKeyPress, dev.tab.MainFrame().Doc().GetElementByID("i"), dev.browser.Mode() == DeveloperMode)
	if err := e2.SetKeyData(event.KeyData{Code: 72}); err != nil {
		t.Fatalf("developer-mode synthetic key data refused: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if UserMode.String() != "user" || DeveloperMode.String() != "developer" || Mode(0).String() != "unknown" {
		t.Fatal("Mode.String broken")
	}
}

func TestKeyCodeFor(t *testing.T) {
	cases := []struct {
		ch    rune
		code  int
		shift bool
	}{
		{'a', 65, false}, {'z', 90, false}, {'A', 65, true},
		{'H', 72, true}, {'e', 69, false}, {'!', 49, true},
		{'1', 49, false}, {' ', 32, false}, {'.', 190, false},
		{'?', 191, true}, {'\n', 13, false},
	}
	for _, c := range cases {
		code, shift := KeyCodeFor(c.ch)
		if code != c.code || shift != c.shift {
			t.Errorf("KeyCodeFor(%q) = %d,%v want %d,%v", c.ch, code, shift, c.code, c.shift)
		}
	}
}

func TestNamedKeyCode(t *testing.T) {
	if NamedKeyCode(KeyEnter) != 13 || NamedKeyCode(KeyShift) != 16 || NamedKeyCode("Nope") != 0 {
		t.Fatal("NamedKeyCode broken")
	}
	if !IsControlKey("Enter") || IsControlKey("a") {
		t.Fatal("IsControlKey broken")
	}
}

func TestUnknownHostNavigationError(t *testing.T) {
	env := newEnv(t, UserMode, nil)
	if err := env.tab.Navigate("http://ghost.test/"); err == nil {
		t.Fatal("expected navigation error")
	}
}

func TestScriptElementIdentity(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="x"></div><script>
			var a = document.getElementById("x");
			var b = document.getElementById("x");
			a.textContent = (a == b) ? "same" : "different";
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	if got := env.tab.MainFrame().Doc().GetElementByID("x").TextContent(); got != "same" {
		t.Errorf("identity = %q, want same", got)
	}
}

func TestScriptDOMConstruction(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<ul id="list"></ul><script>
			var list = document.getElementById("list");
			for (var i = 1; i <= 3; i++) {
				var li = document.createElement("li");
				li.textContent = "item " + i;
				list.appendChild(li);
			}
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	list := env.tab.MainFrame().Doc().GetElementByID("list")
	items := list.ElementsByTag("li")
	if len(items) != 3 || items[2].TextContent() != "item 3" {
		t.Fatalf("list = %q", list.OuterHTML())
	}
}

func TestInnerHTMLAssignment(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="x"></div><script>
			document.getElementById("x").innerHTML = "<span id='gen'>made</span>";
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	if env.tab.MainFrame().Doc().GetElementByID("gen") == nil {
		t.Fatal("innerHTML content not parsed")
	}
}

func TestStopPropagationHidesEventFromAncestors(t *testing.T) {
	// The behaviour that page-level recorders depend on and that breaks
	// them: an app handler stopping propagation keeps document-level
	// listeners blind.
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="outer"><button id="b">x</button></div><script>
			document.getElementById("b").addEventListener("click", function(e) {
				e.stopPropagation();
			});
			document.getElementById("outer").addEventListener("click", function(e) {
				document.getElementById("outer").setAttribute("data-saw", "1");
			});
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	btn := env.tab.MainFrame().Doc().GetElementByID("b")
	x, y := env.tab.Layout().Center(btn)
	env.tab.Click(x, y)
	if env.tab.MainFrame().Doc().GetElementByID("outer").HasAttr("data-saw") {
		t.Fatal("stopPropagation did not hide the event")
	}
}

func TestFocusEventsFire(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<input id="a" type="text"><input id="b" type="text"><script>
			document.getElementById("a").addEventListener("blur", function(e) {
				e.target.setAttribute("data-blurred", "1");
			});
			document.getElementById("b").addEventListener("focus", function(e) {
				e.target.setAttribute("data-focused", "1");
			});
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	doc := env.tab.MainFrame().Doc()
	ax, ay := env.tab.Layout().Center(doc.GetElementByID("a"))
	env.tab.Click(ax, ay)
	bx, by := env.tab.Layout().Center(doc.GetElementByID("b"))
	env.tab.Click(bx, by)
	if !doc.GetElementByID("a").HasAttr("data-blurred") {
		t.Error("blur did not fire")
	}
	if !doc.GetElementByID("b").HasAttr("data-focused") {
		t.Error("focus did not fire")
	}
}

func TestDragDispatchesDragEvents(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="box">drag me</div><script>
			document.getElementById("box").addEventListener("drag", function(e) {
				e.target.setAttribute("data-delta", e.dx + "," + e.dy);
			});
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	box := env.tab.MainFrame().Doc().GetElementByID("box")
	x, y := env.tab.Layout().Center(box)
	env.tab.Drag(x, y, 30, -10)
	if got, _ := box.Attr("data-delta"); got != "30,-10" {
		t.Errorf("delta = %q", got)
	}
}
