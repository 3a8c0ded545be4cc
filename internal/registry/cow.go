package registry

import (
	"sync"

	"github.com/dslab-epfl/warr/internal/netsim"
)

// Copy-on-write application snapshots. Env.Fork does not snapshot every
// hosted application eagerly: a campaign world hosts many applications
// but each trace usually touches one, and building seven unused server
// states per checkpoint dominated the fork cost. Instead, each hosted
// application lives in a stateCell; a fork's cell starts lazy, pointing
// at its parent's cell, and materializes — takes the derived copy
// (declare.go) — on the first access from either side:
//
//   - the fork's first request to (or State() lookup of) the app pulls
//     the snapshot on demand;
//   - the parent materializes all pending fork cells *before* it next
//     serves or hands out that app's state, so the snapshot always
//     captures the app exactly as it stood at fork time.
//
// An application no side ever touches again never materializes at all.
// The remaining contract (documented on Declarer) is the one every
// request-driven application already satisfies: between Fork and the
// next access through the environment, the state is only reached via
// its Handler or Env.State — not through an AppState pointer retained
// from before the fork.

// stateCell holds one environment's instance of one application,
// possibly still lazy (un-materialized fork snapshot).
type stateCell struct {
	app App

	// gate makes touch atomic: it is held while the cell's own state
	// materializes and every pending fork is snapshotted from it, so no
	// touch — the owner's or a fork's — returns while a pending fork
	// still needs the state as it stands.
	gate sync.Mutex

	mu sync.Mutex
	// st is the materialized state; nil while the cell is lazy.
	st AppState
	// src is the parent cell a lazy snapshot materializes from.
	src *stateCell
	// pending lists fork cells that still depend on this cell's current
	// state; they are materialized before the state is next touched.
	pending []*stateCell
}

// touch materializes the cell and every pending fork snapshot of it,
// and returns its state — the required step before the state is
// served, handed out, reset, or mutated, so pending forks capture it as
// it stood when they forked. A lazy cell materializes by touching its
// source, whose touch snapshots this cell among its pending forks; gates
// are therefore only ever taken from a fork towards its ancestors.
func (c *stateCell) touch() AppState {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.mu.Lock()
	lazy, src := c.st == nil, c.src
	c.mu.Unlock()
	if lazy {
		src.touch() // settles c among src's pending forks
	}
	c.mu.Lock()
	st, pending := c.st, c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, f := range pending {
		f.settle(st)
	}
	return st
}

// settle materializes a lazy fork cell as a copy of its source's state
// srcSt; the source's touch calls it with its gate held.
func (c *stateCell) settle(srcSt AppState) {
	st, err := forkState(c.app, srcSt)
	if err != nil {
		panic(err) // unreachable: Env.Fork checked the declaration
	}
	c.mu.Lock()
	c.st, c.src = st, nil
	c.mu.Unlock()
}

// dependOn registers c as a lazy snapshot of src.
func (c *stateCell) dependOn(src *stateCell) {
	c.src = src
	src.mu.Lock()
	src.pending = append(src.pending, c)
	src.mu.Unlock()
}

// forkable checks, without materializing anything, that the cell's
// (possibly still lazy) state declares what a fork copies.
func (c *stateCell) forkable() error {
	c.mu.Lock()
	st, src := c.st, c.src
	c.mu.Unlock()
	if st == nil {
		return src.forkable()
	}
	_, _, _, err := declaration(c.app.Name(), st)
	return err
}

// reset replaces the cell's state with a fresh NewState, after settling
// the pending forks that still need the current one.
func (c *stateCell) reset() {
	c.touch()
	st := c.app.NewState()
	c.mu.Lock()
	c.st = st
	c.mu.Unlock()
}

// appPort is the netsim.Handler an Env registers per hosted
// application: it routes each request through the cell so pending fork
// snapshots are settled before the handler can mutate the state.
type appPort struct {
	cell *stateCell
}

// Serve implements netsim.Handler.
func (p *appPort) Serve(req *netsim.Request) *netsim.Response {
	return p.cell.touch().Handler().Serve(req)
}
