package browser

import (
	"errors"
	"fmt"

	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/script"
	"github.com/dslab-epfl/warr/internal/vclock"
)

// This file implements environment checkpointing at the browser layer:
// a Fork is a deep, independent copy of the browser — cookies, tabs,
// frame trees, DOM documents (each copied in one walk that also fills
// the copy's query index and the fork's node map), script interpreter
// state, event listeners, and pending asynchronous work — re-rooted on
// a forked world's clock and network.
// The campaign trie scheduler checkpoints a replay at trace branch
// points and forks one copy per divergent suffix, so a shared prefix
// executes exactly once.
//
// What a fork deliberately does not carry:
//
//   - frame observers and recorder hooks: tools re-attach to the fork
//     (the replayer's driver clones itself via webdriver.CloneFor);
//   - clock fire observers and network traffic observers: they belong
//     to the parent world's instruments;
//   - native functions captured into script variables under new names
//     beyond the installed bindings (e.g. a stored document.getElementById):
//     these keep operating on the parent world. The installed bindings
//     themselves (document, window, console, setTimeout, ...) are
//     rebound to the fork wherever they are referenced.

// World is the environment surrounding a browser: the thing that owns
// the server-side application state. Browser.Fork delegates to it so
// forking clones the whole world; registry.Env implements it.
type World interface {
	// ForkBrowser clones b's entire environment — application server
	// state onto a fresh network, clock at the same instant — and
	// returns the browser fork living in it.
	ForkBrowser(b *Browser) (*Fork, error)
}

// ErrNotForkable reports a browser with no attached world: there is no
// owner able to clone the server side.
var ErrNotForkable = errors.New("browser: environment does not support forking (no world attached)")

// ErrForeignPendingWork reports pending clock timers that the browser's
// structured async records do not cover — work scheduled directly on
// the clock that a fork could not reproduce.
var ErrForeignPendingWork = errors.New("browser: pending timers not owned by the script bindings")

// Fork is the result of forking a browser: the copy plus the tab and
// frame correspondence, which callers (the replayer) use to re-attach
// drivers to the cloned page.
type Fork struct {
	Browser *Browser
	tabs    map[*Tab]*Tab
	frames  map[*Frame]*Frame
}

// Tab maps a parent-world tab to its fork (nil if unknown).
func (fk *Fork) Tab(old *Tab) *Tab { return fk.tabs[old] }

// Frame maps a parent-world frame to its fork (nil if unknown).
func (fk *Fork) Frame(old *Frame) *Frame { return fk.frames[old] }

// Fork clones the browser's whole world through the attached World.
func (b *Browser) Fork() (*Fork, error) {
	if b.world == nil {
		return nil, ErrNotForkable
	}
	return b.world.ForkBrowser(b)
}

// CloneOnto deep-copies the browser onto a forked world's clock and
// network. The clock must stand at the same instant as the browser's
// own; the network must already serve the forked application state.
// Environment owners (registry.Env.Fork) call this — tools fork through
// Browser.Fork.
func (b *Browser) CloneOnto(clock *vclock.Clock, network *netsim.Network) (*Fork, error) {
	if !clock.Now().Equal(b.clock.Now()) {
		return nil, fmt.Errorf("browser: fork clock stands at %v, parent at %v", clock.Now(), b.clock.Now())
	}
	pending := b.pendingAsyncs()
	if n := b.clock.PendingTimers(); n != len(pending) {
		return nil, fmt.Errorf("%w: %d pending timer(s), %d owned record(s)",
			ErrForeignPendingWork, n, len(pending))
	}

	nb := &Browser{clock: clock, network: network, mode: b.mode}
	b.mu.Lock()
	nb.cookies = make(map[string]map[string]string, len(b.cookies))
	for host, jar := range b.cookies {
		dup := make(map[string]string, len(jar))
		for k, v := range jar {
			dup[k] = v
		}
		nb.cookies[host] = dup
	}
	tabs := append([]*Tab(nil), b.tabs...)
	b.mu.Unlock()

	st := &cloneState{
		fork:   &Fork{Browser: nb, tabs: make(map[*Tab]*Tab), frames: make(map[*Frame]*Frame)},
		nodes:  make(map[*dom.Node]*dom.Node),
		recs:   make(map[*asyncRec]*asyncRec),
		owners: make(map[script.Value]builtinOwner),
	}
	st.cloner = script.NewCloner(st.mapHost)

	// Phase 1: structure. Clone every tab's frame tree and documents,
	// create fresh interpreters (pristine bindings), and index which
	// builtin each original frame installed under which name.
	for _, t := range tabs {
		nb.tabs = append(nb.tabs, st.cloneTabStructure(t, nb))
	}

	// Phase 2: pending async records get fork-side shells up front, so
	// TimerHandle values met during value cloning resolve to them.
	clones := make([]*asyncRec, len(pending))
	for i, rec := range pending {
		clones[i] = &asyncRec{frame: st.fork.frames[rec.frame], kind: rec.kind, rawURL: rec.rawURL}
		st.recs[rec] = clones[i]
	}

	// Phase 3: state. With every frame, node, and builtin mapped, copy
	// the script worlds, replay listener registrations, and restore
	// per-tab focus.
	for _, t := range tabs {
		st.cloneTabState(t)
	}

	// Phase 4: re-arm pending async work in registration order, so
	// same-deadline records keep firing in the parent's order.
	for i, rec := range pending {
		dup := clones[i]
		dup.fn = st.cloner.Value(rec.fn)
		dup.cb = st.cloner.Value(rec.cb)
		dup.req = cloneRequest(rec.req)
		nb.scheduleAsync(dup, rec.deadline.Sub(clock.Now()))
	}
	return st.fork, nil
}

// builtinOwner locates one installed binding: which frame installed it,
// under which global name.
type builtinOwner struct {
	frame *Frame
	name  string
}

// cloneState carries the correspondence tables of one fork.
type cloneState struct {
	fork   *Fork
	nodes  map[*dom.Node]*dom.Node
	recs   map[*asyncRec]*asyncRec
	owners map[script.Value]builtinOwner
	cloner *script.Cloner
}

// cloneTabStructure clones the tab shell and its frame tree (phase 1).
func (st *cloneState) cloneTabStructure(old *Tab, nb *Browser) *Tab {
	t := &Tab{browser: nb, viewportW: old.viewportW}
	t.renderer = newRenderer(t)
	st.fork.tabs[old] = t
	t.main = st.cloneFrameStructure(old.main, t, nil)
	t.console = append([]ConsoleEntry(nil), old.console...)
	if old.popup != nil {
		p := *old.popup
		t.popup = &p
	}
	t.pendingNavs = append([]pendingNav(nil), old.pendingNavs...)
	return t
}

// cloneFrameStructure clones one frame, its document (index included),
// and its children, and builds a fresh interpreter with pristine
// bindings. Script state is copied later, in phase 3.
func (st *cloneState) cloneFrameStructure(old *Frame, tab *Tab, parent *Frame) *Frame {
	nf := newFrame(tab, parent, st.nodes[old.element])
	nf.name = old.name
	nf.hasSrc = old.hasSrc
	nf.alive = old.alive
	st.fork.frames[old] = nf

	nf.doc = old.doc.CloneWithIndex(st.nodes)
	nf.interp = newFrameInterp(nf)
	for name, v := range old.builtins {
		st.owners[v] = builtinOwner{frame: old, name: name}
	}
	// The old global scope maps to the fresh interpreter's global, so
	// cloned closures re-root there.
	st.cloner.MapScope(old.interp.Global, nf.interp.Global)

	for _, c := range old.children {
		nf.children = append(nf.children, st.cloneFrameStructure(c, tab, nf))
	}
	return nf
}

// cloneTabState copies script state, listeners, and focus (phase 3).
func (st *cloneState) cloneTabState(old *Tab) {
	t := st.fork.tabs[old]
	for oldF, newF := range framePairs(old.main, st) {
		st.cloneFrameState(oldF, newF)
	}
	if ff := st.fork.frames[old.focusFrame]; ff != nil {
		t.focusFrame = ff
	} else {
		t.focusFrame = t.main
	}
}

// framePairs yields (old, new) frame pairs of a tab, depth first.
func framePairs(old *Frame, st *cloneState) map[*Frame]*Frame {
	out := make(map[*Frame]*Frame)
	var walk func(f *Frame)
	walk = func(f *Frame) {
		out[f] = st.fork.frames[f]
		for _, c := range f.children {
			walk(c)
		}
	}
	walk(old)
	return out
}

func (st *cloneState) cloneFrameState(old, nf *Frame) {
	nf.interp.MaxSteps = old.interp.MaxSteps

	// Copy globals. A name still bound to the pristine builtin that was
	// installed under it keeps the fork's fresh binding; everything else
	// — user variables, user overrides of builtin names — is cloned.
	for _, name := range old.interp.Global.Names() {
		v, _ := old.interp.Global.OwnLookup(name)
		if orig, ok := old.builtins[name]; ok && orig == v {
			continue
		}
		nf.interp.Global.Define(name, st.cloner.Value(v))
	}

	// Replay listener registrations in order, so per-node firing order
	// survives the fork.
	for _, rec := range old.listenerLog {
		n := st.mapNode(rec.node)
		if rec.inline {
			nf.addInlineListener(n, rec.typ, rec.src)
		} else {
			nf.addScriptListener(n, rec.typ, rec.capture, st.cloner.Value(rec.fn))
		}
	}

	nf.focused = st.mapNode(old.focused)
}

// mapNode translates a node into the fork. Nodes outside every cloned
// document — detached subtrees held only by script variables — are
// cloned on first sight, whole subtree at once, so aliases into the
// same detached tree stay aliases.
func (st *cloneState) mapNode(n *dom.Node) *dom.Node {
	if n == nil {
		return nil
	}
	if dup, ok := st.nodes[n]; ok {
		return dup
	}
	dom.CloneMapped(n.Root(), st.nodes)
	return st.nodes[n]
}

// mapHost is the cloner's hook for host values: frame-bound handles are
// re-bound to the forked frames, installed builtins are swapped for the
// fork's equivalents, and anything else is kept (documented sharing).
func (st *cloneState) mapHost(v script.Value) (script.Value, bool) {
	if owner, ok := st.owners[v]; ok {
		if nf := st.fork.frames[owner.frame]; nf != nil {
			if dup, ok := nf.builtins[owner.name]; ok {
				return dup, true
			}
		}
	}
	switch x := v.(type) {
	case *ElementHandle:
		nf := st.fork.frames[x.frame]
		if nf == nil {
			return v, true
		}
		return nf.handleFor(st.mapNode(x.node)), true
	case *DocHandle:
		if nf := st.fork.frames[x.frame]; nf != nil {
			return &DocHandle{frame: nf}, true
		}
		return v, true
	case *WindowHandle:
		if nf := st.fork.frames[x.frame]; nf != nil {
			return &WindowHandle{frame: nf}, true
		}
		return v, true
	case *LocationHandle:
		if nf := st.fork.frames[x.frame]; nf != nil {
			return &LocationHandle{frame: nf}, true
		}
		return v, true
	case *TimerHandle:
		// A live pending timer maps to its fork-side record; a handle
		// whose timer already fired or was stopped becomes inert.
		return &TimerHandle{browser: st.fork.Browser, rec: st.recs[x.rec]}, true
	case *EventBinding:
		if nf := st.fork.frames[x.frame]; nf != nil {
			return &EventBinding{frame: nf, ev: x.ev}, true
		}
		return v, true
	}
	return nil, false
}
