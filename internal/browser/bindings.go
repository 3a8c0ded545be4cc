package browser

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/event"
	"github.com/dslab-epfl/warr/internal/htmlparse"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/script"
)

// This file implements the JavaScript host bindings of the simulated
// browser: document, elements, events, window, console, timers, and AJAX.
// Together with the script interpreter they form the client-side code
// substrate the paper's applications run on.

// encodeURIComponentBuiltin is stateless, so one instance serves every
// frame (frames are created per page load and per fork).
var encodeURIComponentBuiltin = &script.NativeFunc{Name: "encodeURIComponent", Fn: func(args []script.Value) (script.Value, error) {
	if len(args) == 0 {
		return "", nil
	}
	return url.QueryEscape(script.ToString(args[0])), nil
}}

// newFrameInterp builds the global environment for a frame.
func newFrameInterp(f *Frame) *script.Interp {
	in := script.New()
	script.InstallBuiltins(in)

	in.Define("document", &DocHandle{frame: f})
	in.Define("window", &WindowHandle{frame: f})
	in.Define("console", consoleObject(f))
	in.Define("alert", &script.NativeFunc{Name: "alert", Fn: func(args []script.Value) (script.Value, error) {
		msg := ""
		if len(args) > 0 {
			msg = script.ToString(args[0])
		}
		f.tab.ShowPopup(msg)
		return script.Undefined, nil
	}})
	in.Define("setTimeout", setTimeoutFunc(f))
	in.Define("clearTimeout", clearTimeoutFunc(f))
	in.Define("httpGet", httpGetFunc(f))
	in.Define("encodeURIComponent", encodeURIComponentBuiltin)

	// Snapshot the pristine global bindings (the host bindings above
	// plus the script builtins) so a fork can tell user state apart
	// from installed machinery — see snapshot.go. Frames are created on
	// every page load, so this stays a single map copy, unsorted.
	f.builtins = make(map[string]script.Value, 12)
	in.Global.ForEachOwn(func(name string, v script.Value) {
		f.builtins[name] = v
	})
	return in
}

func consoleObject(f *Frame) *script.Object {
	obj := script.NewObject()
	log := func(level ConsoleLevel) *script.NativeFunc {
		return &script.NativeFunc{Name: "log", Fn: func(args []script.Value) (script.Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = script.ToString(a)
			}
			f.tab.logConsole(level, strings.Join(parts, " "))
			return script.Undefined, nil
		}}
	}
	if err := obj.SetProp("log", log(ConsoleLog)); err != nil {
		panic(err)
	}
	if err := obj.SetProp("error", log(ConsoleError)); err != nil {
		panic(err)
	}
	return obj
}

func setTimeoutFunc(f *Frame) *script.NativeFunc {
	return &script.NativeFunc{Name: "setTimeout", Fn: func(args []script.Value) (script.Value, error) {
		if len(args) < 1 {
			return script.Undefined, fmt.Errorf("setTimeout: missing callback")
		}
		fn := args[0]
		var ms float64
		if len(args) > 1 {
			n, err := script.ToNumber(args[1])
			if err != nil {
				return nil, err
			}
			ms = n
		}
		b := f.tab.browser
		rec := newTimeoutRec(f, fn)
		b.scheduleAsync(rec, msToDuration(ms))
		return &TimerHandle{browser: b, rec: rec}, nil
	}}
}

func clearTimeoutFunc(f *Frame) *script.NativeFunc {
	return &script.NativeFunc{Name: "clearTimeout", Fn: func(args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			if th, ok := args[0].(*TimerHandle); ok {
				th.browser.cancelAsync(th.rec)
			}
		}
		return script.Undefined, nil
	}}
}

// httpGetFunc implements the AJAX binding: httpGet(url, callback) fetches
// asynchronously over the network (with its configured latency) and
// invokes callback(responseBody, status). This is the mechanism the
// simulated applications use for dynamic loading — the behaviour that
// makes them "more vulnerable to timing errors" (paper §V-B). The
// pending fetch lives as an async record on the browser (async.go), so
// a checkpoint taken mid-flight clones it, callback and all.
func httpGetFunc(f *Frame) *script.NativeFunc {
	return &script.NativeFunc{Name: "httpGet", Fn: func(args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.Undefined, fmt.Errorf("httpGet: need url and callback")
		}
		rawURL := f.resolveURL(script.ToString(args[0]))
		cb := args[1]
		req := netsim.NewRequest("GET", rawURL)
		b := f.tab.browser
		if c := b.cookieHeader(req.Host()); c != "" {
			req.SetHeader("Cookie", c)
		}
		b.scheduleAsync(newAJAXRec(f, req, rawURL, cb), b.network.Latency())
		return script.Undefined, nil
	}}
}

func msToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// TimerHandle is the script-visible value returned by setTimeout. A
// handle cloned into a fork whose timer already fired carries a nil
// record; clearTimeout on it is a no-op.
type TimerHandle struct {
	browser *Browser
	rec     *asyncRec
}

// ---- document ----

// DocHandle exposes a frame's document to scripts.
type DocHandle struct {
	frame *Frame
}

var _ script.PropHolder = (*DocHandle)(nil)

// GetProp implements script.PropHolder.
func (d *DocHandle) GetProp(name string) (script.Value, bool) {
	f := d.frame
	switch name {
	case "body":
		if b := f.doc.Body(); b != nil {
			return f.handleFor(b), true
		}
		return nil, true
	case "title":
		return f.doc.Title(), true
	case "URL":
		return f.doc.URL, true
	case "getElementById":
		return f.docMethod(name, func(args []script.Value) (script.Value, error) {
			if len(args) < 1 {
				return nil, nil
			}
			n := f.doc.GetElementByID(script.ToString(args[0]))
			if n == nil {
				return nil, nil // JavaScript returns null
			}
			return f.handleFor(n), nil
		}), true
	case "createElement":
		return f.docMethod(name, func(args []script.Value) (script.Value, error) {
			if len(args) < 1 {
				return nil, fmt.Errorf("createElement: missing tag")
			}
			return f.handleFor(dom.NewElement(script.ToString(args[0]))), nil
		}), true
	case "createTextNode":
		return f.docMethod(name, func(args []script.Value) (script.Value, error) {
			text := ""
			if len(args) > 0 {
				text = script.ToString(args[0])
			}
			return f.handleFor(dom.NewText(text)), nil
		}), true
	default:
		return script.Undefined, false
	}
}

// docMethod interns document method bindings per frame: scripts call
// document.getElementById on nearly every handled event, and minting a
// fresh closure per property access kept the replay hot path
// allocating. Interning also makes method identity stable, as in real
// DOM implementations.
func (f *Frame) docMethod(name string, fn func(args []script.Value) (script.Value, error)) *script.NativeFunc {
	if m, ok := f.docMethods[name]; ok {
		return m
	}
	if f.docMethods == nil {
		f.docMethods = make(map[string]*script.NativeFunc, 4)
	}
	m := &script.NativeFunc{Name: name, Fn: fn}
	f.docMethods[name] = m
	return m
}

// SetProp implements script.PropHolder; document properties are not
// assignable.
func (d *DocHandle) SetProp(name string, v script.Value) error {
	return fmt.Errorf("document.%s is not assignable", name)
}

// ---- window ----

// WindowHandle exposes the window object.
type WindowHandle struct {
	frame *Frame
}

var _ script.PropHolder = (*WindowHandle)(nil)

// GetProp implements script.PropHolder.
func (w *WindowHandle) GetProp(name string) (script.Value, bool) {
	switch name {
	case "document":
		return &DocHandle{frame: w.frame}, true
	case "location":
		return &LocationHandle{frame: w.frame}, true
	case "setTimeout":
		return setTimeoutFunc(w.frame), true
	default:
		return script.Undefined, false
	}
}

// SetProp implements script.PropHolder.
func (w *WindowHandle) SetProp(name string, v script.Value) error {
	if name == "location" {
		w.frame.tab.scheduleNavigate(w.frame.resolveURL(script.ToString(v)))
		return nil
	}
	return fmt.Errorf("window.%s is not assignable", name)
}

// LocationHandle exposes window.location.
type LocationHandle struct {
	frame *Frame
}

var _ script.PropHolder = (*LocationHandle)(nil)

// GetProp implements script.PropHolder.
func (l *LocationHandle) GetProp(name string) (script.Value, bool) {
	if name == "href" {
		return l.frame.doc.URL, true
	}
	return script.Undefined, false
}

// SetProp implements script.PropHolder; assigning href navigates.
func (l *LocationHandle) SetProp(name string, v script.Value) error {
	if name == "href" {
		l.frame.tab.scheduleNavigate(l.frame.resolveURL(script.ToString(v)))
		return nil
	}
	return fmt.Errorf("location.%s is not assignable", name)
}

// ---- elements ----

// handleFor interns the ElementHandle for a node so script identity
// comparisons work.
func (f *Frame) handleFor(n *dom.Node) *ElementHandle {
	if h, ok := f.handles[n]; ok {
		return h
	}
	h := &ElementHandle{frame: f, node: n}
	f.handles[n] = h
	return h
}

// ElementHandle exposes a DOM node to scripts.
type ElementHandle struct {
	frame *Frame
	node  *dom.Node
}

var _ script.PropHolder = (*ElementHandle)(nil)

// Node returns the wrapped DOM node (used by the webdriver).
func (h *ElementHandle) Node() *dom.Node { return h.node }

// String implements fmt.Stringer for console output.
func (h *ElementHandle) String() string {
	return "[object HTMLElement <" + h.node.Tag + ">]"
}

// GetProp implements script.PropHolder.
func (h *ElementHandle) GetProp(name string) (script.Value, bool) {
	n := h.node
	f := h.frame
	switch name {
	case "id":
		return n.ID(), true
	case "tagName":
		return strings.ToUpper(n.Tag), true
	case "className":
		return n.AttrOr("class", ""), true
	case "textContent":
		return n.TextContent(), true
	case "value":
		return n.Value, true
	case "innerHTML":
		return n.InnerHTML(), true
	case "parentNode":
		if p := n.Parent(); p != nil {
			return f.handleFor(p), true
		}
		return nil, true
	case "firstChild":
		if c := n.FirstChild(); c != nil {
			return f.handleFor(c), true
		}
		return nil, true
	case "childCount":
		return float64(n.NumChildren()), true
	case "style":
		return n.AttrOr("style", ""), true
	case "getAttribute":
		return &script.NativeFunc{Name: "getAttribute", Fn: func(args []script.Value) (script.Value, error) {
			if len(args) < 1 {
				return nil, nil
			}
			v, ok := n.Attr(script.ToString(args[0]))
			if !ok {
				return nil, nil
			}
			return v, nil
		}}, true
	case "setAttribute":
		return &script.NativeFunc{Name: "setAttribute", Fn: func(args []script.Value) (script.Value, error) {
			if len(args) < 2 {
				return script.Undefined, fmt.Errorf("setAttribute: need name and value")
			}
			n.SetAttr(script.ToString(args[0]), script.ToString(args[1]))
			return script.Undefined, nil
		}}, true
	case "removeAttribute":
		return &script.NativeFunc{Name: "removeAttribute", Fn: func(args []script.Value) (script.Value, error) {
			if len(args) > 0 {
				n.RemoveAttr(script.ToString(args[0]))
			}
			return script.Undefined, nil
		}}, true
	case "appendChild":
		return &script.NativeFunc{Name: "appendChild", Fn: func(args []script.Value) (script.Value, error) {
			child, ok := argHandle(args)
			if !ok {
				return script.Undefined, fmt.Errorf("appendChild: argument is not a node")
			}
			n.AppendChild(child.node)
			return child, nil
		}}, true
	case "removeChild":
		return &script.NativeFunc{Name: "removeChild", Fn: func(args []script.Value) (script.Value, error) {
			child, ok := argHandle(args)
			if !ok {
				return script.Undefined, fmt.Errorf("removeChild: argument is not a node")
			}
			n.RemoveChild(child.node)
			return child, nil
		}}, true
	case "remove":
		return &script.NativeFunc{Name: "remove", Fn: func(args []script.Value) (script.Value, error) {
			n.Detach()
			return script.Undefined, nil
		}}, true
	case "addEventListener":
		return &script.NativeFunc{Name: "addEventListener", Fn: func(args []script.Value) (script.Value, error) {
			if len(args) < 2 {
				return script.Undefined, fmt.Errorf("addEventListener: need type and listener")
			}
			typ := script.ToString(args[0])
			fn := args[1]
			capture := len(args) > 2 && script.Truthy(args[2])
			f.addScriptListener(n, typ, capture, fn)
			return script.Undefined, nil
		}}, true
	case "focus":
		return &script.NativeFunc{Name: "focus", Fn: func(args []script.Value) (script.Value, error) {
			f.focused = n
			f.tab.focusFrame = f
			return script.Undefined, nil
		}}, true
	default:
		return script.Undefined, false
	}
}

// SetProp implements script.PropHolder.
func (h *ElementHandle) SetProp(name string, v script.Value) error {
	n := h.node
	switch name {
	case "textContent":
		n.SetTextContent(script.ToString(v))
		return nil
	case "value":
		n.SetValue(script.ToString(v))
		return nil
	case "innerHTML":
		n.RemoveChildren()
		for _, c := range htmlparse.ParseFragment(script.ToString(v)) {
			n.AppendChild(c)
		}
		return nil
	case "id":
		n.SetAttr("id", script.ToString(v))
		return nil
	case "className":
		n.SetAttr("class", script.ToString(v))
		return nil
	case "style":
		n.SetAttr("style", script.ToString(v))
		return nil
	default:
		return fmt.Errorf("cannot set property %q of element", name)
	}
}

func argHandle(args []script.Value) (*ElementHandle, bool) {
	if len(args) < 1 {
		return nil, false
	}
	h, ok := args[0].(*ElementHandle)
	return h, ok
}

// scriptEventHandler wraps a script function as an engine event.Handler.
func (f *Frame) scriptEventHandler(fn script.Value) event.Handler {
	return func(e *event.Event) {
		f.CallHandler(fn, &EventBinding{frame: f, ev: e})
	}
}

// EventBinding exposes a DOM event to scripts.
type EventBinding struct {
	frame *Frame
	ev    *event.Event
}

var _ script.PropHolder = (*EventBinding)(nil)

// GetProp implements script.PropHolder.
func (b *EventBinding) GetProp(name string) (script.Value, bool) {
	e := b.ev
	switch name {
	case "type":
		return e.Type, true
	case "target":
		if e.Target != nil {
			return b.frame.handleFor(e.Target), true
		}
		return nil, true
	case "currentTarget":
		if e.CurrentTarget != nil {
			return b.frame.handleFor(e.CurrentTarget), true
		}
		return nil, true
	case "isTrusted":
		return e.Trusted, true
	case "keyCode", "which":
		if e.Key != nil {
			return float64(e.Key.Code), true
		}
		return float64(0), true
	case "key":
		if e.Key != nil {
			return e.Key.Key, true
		}
		return "", true
	case "shiftKey":
		return e.Key != nil && e.Key.Shift, true
	case "ctrlKey":
		return e.Key != nil && e.Key.Ctrl, true
	case "altKey":
		return e.Key != nil && e.Key.Alt, true
	case "clientX":
		if e.Mouse != nil {
			return float64(e.Mouse.X), true
		}
		return float64(0), true
	case "clientY":
		if e.Mouse != nil {
			return float64(e.Mouse.Y), true
		}
		return float64(0), true
	case "dx":
		if e.Drag != nil {
			return float64(e.Drag.DX), true
		}
		return float64(0), true
	case "dy":
		if e.Drag != nil {
			return float64(e.Drag.DY), true
		}
		return float64(0), true
	case "preventDefault":
		return &script.NativeFunc{Name: "preventDefault", Fn: func(args []script.Value) (script.Value, error) {
			e.PreventDefault()
			return script.Undefined, nil
		}}, true
	case "stopPropagation":
		return &script.NativeFunc{Name: "stopPropagation", Fn: func(args []script.Value) (script.Value, error) {
			e.StopPropagation()
			return script.Undefined, nil
		}}, true
	default:
		return script.Undefined, false
	}
}

// SetProp implements script.PropHolder. Setting keyCode on a synthetic
// event enforces the browser-mode policy: read-only for user builds,
// settable for the developer build the WaRR Replayer uses (§IV-C).
func (b *EventBinding) SetProp(name string, v script.Value) error {
	switch name {
	case "keyCode", "which":
		n, err := script.ToNumber(v)
		if err != nil {
			return err
		}
		kd := event.KeyData{Code: int(n)}
		if b.ev.Key != nil {
			kd = *b.ev.Key
			kd.Code = int(n)
		}
		return b.ev.SetKeyData(kd)
	case "key":
		kd := event.KeyData{Key: script.ToString(v)}
		if b.ev.Key != nil {
			kd = *b.ev.Key
			kd.Key = script.ToString(v)
		}
		return b.ev.SetKeyData(kd)
	default:
		return fmt.Errorf("cannot set event property %q", name)
	}
}

// ---- inline handlers & focus events ----

// inlineHandlerAttrs lists the on* attributes wired at load time.
var inlineHandlerAttrs = []string{
	"onclick", "ondblclick", "oninput", "onchange", "onkeydown",
	"onkeypress", "onkeyup", "onfocus", "onblur", "onsubmit", "ondrag",
}

// wireInlineHandlers registers listeners for on* attributes. The
// attribute value is evaluated as a script with `event` bound.
func wireInlineHandlers(f *Frame) {
	f.doc.Root().Walk(func(n *dom.Node) bool {
		// Most elements carry no handler: skip them before the lookups.
		if n.Type != dom.ElementNode || !n.HasAttrPrefix("on") {
			return true
		}
		for _, attr := range inlineHandlerAttrs {
			src, ok := n.AttrExact(attr)
			if !ok || strings.TrimSpace(src) == "" {
				continue
			}
			f.addInlineListener(n, strings.TrimPrefix(attr, "on"), src)
		}
		return true
	})
}

// addScriptListener registers a script-function listener and logs the
// registration so forks can replay it (frame.go).
func (f *Frame) addScriptListener(n *dom.Node, typ string, capture bool, fn script.Value) {
	f.listenerLog = append(f.listenerLog, listenerRec{node: n, typ: typ, capture: capture, fn: fn})
	event.Listen(n, typ, capture, f.scriptEventHandler(fn))
}

// addInlineListener registers an inline on*-attribute handler and logs
// the registration. The handler re-evaluates src with `event` bound.
func (f *Frame) addInlineListener(n *dom.Node, typ, src string) {
	f.listenerLog = append(f.listenerLog, listenerRec{node: n, typ: typ, inline: true, src: src})
	event.Listen(n, typ, false, func(e *event.Event) {
		f.interp.Define("event", &EventBinding{frame: f, ev: e})
		if _, err := f.interp.Run(src); err != nil {
			f.tab.logConsole(ConsoleError, err.Error())
		}
	})
}

// dispatchFocusEvent fires a focus or blur event on n.
func dispatchFocusEvent(n *dom.Node, typ string) {
	event.Dispatch(event.New(typ, n))
}
