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

	mu sync.Mutex
	// st is the materialized state; nil while the cell is lazy.
	st AppState
	// src is the parent cell a lazy snapshot materializes from.
	src *stateCell
	// pending lists fork cells that still depend on this cell's current
	// state; they are materialized before the state is next touched.
	pending []*stateCell
}

// materialize returns the cell's state, snapshotting from the source
// chain on first use. The cell's lock is never held across the call
// into the source: the source's touch may drain a pending list that
// contains this very cell, re-entering materialize on the same
// goroutine (the nil-check under the lock makes that idempotent).
func (c *stateCell) materialize() AppState {
	c.mu.Lock()
	if c.st != nil {
		st := c.st
		c.mu.Unlock()
		return st
	}
	src := c.src
	c.mu.Unlock()

	srcSt := src.touch()
	c.mu.Lock()
	if c.st == nil {
		st, err := forkState(c.app, srcSt)
		if err != nil {
			c.mu.Unlock()
			panic(err) // unreachable: Env.Fork checked the declaration
		}
		c.st, c.src = st, nil
	}
	st := c.st
	c.mu.Unlock()
	return st
}

// touch materializes every pending fork snapshot of this cell and
// returns its state — the required step before the state is served,
// handed out, reset, or mutated, so pending forks capture it as it
// stood when they forked.
func (c *stateCell) touch() AppState {
	for {
		c.mu.Lock()
		pending := c.pending
		c.pending = nil
		c.mu.Unlock()
		if len(pending) == 0 {
			break
		}
		for _, f := range pending {
			f.materialize()
		}
	}
	return c.materialize()
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
