package replayer

// This file implements the session-based replay surface: instead of the
// one-shot Replay call, a Session replays a trace incrementally — one
// command per Next call, or streamed through the Steps iterator — with
// context cancellation checked between commands and a chain of hooks
// observing resolution and execution. The higher-level tools are built
// on it: WebErr's grammar inference and AUsER's progressive snapshotting
// are hooks, and the campaign executor drives many sessions concurrently
// over isolated environments.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/webdriver"
)

// Hooks is one observer in a session's hook chain. Every field is
// optional; hooks are invoked in registration order (Options.Hooks
// first, then hooks added with Session.AddHooks).
type Hooks struct {
	// BeforeStep runs before command idx is resolved.
	BeforeStep func(idx int, cmd command.Command, tab *browser.Tab)
	// OnResolve runs after element resolution and before the action
	// executes. The step carries the resolution outcome: Status,
	// UsedXPath and Heuristic are set; Err is set when no strategy
	// found the element (the step will be reported failed).
	OnResolve func(step Step, tab *browser.Tab)
	// AfterStep runs after the command executed (or failed), with the
	// final step outcome. WebErr's grammar inference captures the page
	// state each command produced here (§V-A).
	AfterStep func(step Step, tab *browser.Tab)
}

// Session replays one trace incrementally in its own tab. A Session is
// not safe for concurrent use; run concurrent replays as separate
// sessions over isolated environments (see internal/campaign).
type Session struct {
	replayer *Replayer
	ctx      context.Context
	trace    command.Trace
	tab      *browser.Tab
	driver   *webdriver.Driver
	hooks    []Hooks
	next     int
	res      *Result
	done     bool
}

// NewSession opens a replay session for the trace: it creates a fresh
// tab, attaches the interaction driver, and loads the trace's start
// page. Commands are not replayed until Next (or Steps) is called, and
// ctx is checked between commands — cancelling it stops the session at
// the next command boundary with a partial Result.
func (r *Replayer) NewSession(ctx context.Context, tr command.Trace) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tab := r.browser.NewTab()
	s := &Session{
		replayer: r,
		ctx:      ctx,
		trace:    tr,
		tab:      tab,
		driver:   webdriver.New(tab, r.opts.Driver),
		// Copied, not aliased: AddHooks on one session must never leak
		// into sessions sharing this replayer's Options.Hooks slice.
		hooks: append([]Hooks(nil), r.opts.Hooks...),
		res:   &Result{},
	}
	if tr.StartURL != "" {
		if err := tab.Navigate(tr.StartURL); err != nil {
			s.done = true
			return s, fmt.Errorf("replayer: loading start page: %w", err)
		}
	}
	return s, nil
}

// AddHooks appends a hook set to this session's chain, after any hooks
// configured in Options. It must be called before the first Next.
func (s *Session) AddHooks(h Hooks) { s.hooks = append(s.hooks, h) }

// Fork checkpoints the session at its current command position: the
// whole environment (browser, page, script state, pending timers, and
// — through the registry — server-side application state) is deep-
// copied, and the returned session continues from command Next in the
// copy while this session keeps running in the original. Results so
// far are carried over, so a forked session's final Result is the same
// shape a full-trace replay produces; hooks are shared with the parent.
//
// Forking requires a forkable environment: a browser with a world
// attached (registry.NewEnv does this) whose applications implement
// registry.Declarer. Otherwise Fork fails — typically with
// browser.ErrNotForkable or *registry.NotDeclaredError — and the
// caller falls back to replaying the prefix in a fresh environment.
//
// Forks serve the campaign trie's shared prefixes only. A cancelled
// session is never forked to continue it: a cancelled job resumes by
// re-running its spec in a fresh world (see jobs.Engine.Resume), which
// replays to the same outcome because replay is deterministic.
func (s *Session) Fork() (*Session, error) {
	return s.ForkFor(s.trace)
}

// ForkFor is Fork with a retarget: the forked session replays tr, a
// trace that must agree with this session's trace on the already-
// replayed prefix. The campaign trie scheduler uses it to branch one
// checkpoint into many divergent suffixes.
func (s *Session) ForkFor(tr command.Trace) (*Session, error) {
	if err := s.checkPrefix(tr); err != nil {
		return nil, err
	}
	fk, err := s.replayer.browser.Fork()
	if err != nil {
		return nil, err
	}
	tab := fk.Tab(s.tab)
	ns := &Session{
		replayer: New(fk.Browser, s.replayer.opts),
		ctx:      s.ctx,
		trace:    tr,
		tab:      tab,
		driver:   s.driver.CloneFor(tab, fk.Frame),
		hooks:    append([]Hooks(nil), s.hooks...),
		next:     s.next,
		res:      s.res.Clone(),
		done:     s.done,
	}
	return ns, nil
}

// Retarget swaps the session's trace for tr, which must agree with the
// current trace on the already-replayed prefix. Replay continues from
// the same position into tr's remaining commands. The campaign trie
// scheduler retargets a live session when descending into a subtree
// whose minimum job differs from the one the session was opened for.
func (s *Session) Retarget(tr command.Trace) error {
	if err := s.checkPrefix(tr); err != nil {
		return err
	}
	s.trace = tr
	// A session that exhausted its old trace may have more commands to
	// replay in the new one (and vice versa). Exhaustion is re-derived;
	// halted and cancelled states stay final.
	if s.done && !s.res.Halted && !s.res.Cancelled {
		s.done = s.next >= len(tr.Commands)
	}
	return nil
}

// checkPrefix verifies tr shares the already-replayed prefix.
func (s *Session) checkPrefix(tr command.Trace) error {
	if tr.StartURL != s.trace.StartURL {
		return fmt.Errorf("replayer: retarget trace starts at %q, session at %q", tr.StartURL, s.trace.StartURL)
	}
	if len(tr.Commands) < s.next {
		return fmt.Errorf("replayer: retarget trace has %d commands, session already replayed %d", len(tr.Commands), s.next)
	}
	for i := 0; i < s.next; i++ {
		if tr.Commands[i] != s.trace.Commands[i] {
			return fmt.Errorf("replayer: retarget trace diverges at already-replayed command %d", i)
		}
	}
	return nil
}

// Clone deep-copies a result: snapshots of a live session's Result
// (which the session keeps appending to) and fork bookkeeping both
// need an independent copy.
func (r *Result) Clone() *Result {
	dup := *r
	dup.Steps = append([]Step(nil), r.Steps...)
	return &dup
}

// Tab returns the tab the session replays into; its page state is live
// and may be inspected between steps or after the session ends.
func (s *Session) Tab() *browser.Tab { return s.tab }

// Trace returns the trace being replayed.
func (s *Session) Trace() command.Trace { return s.trace }

// Done reports whether the session has ended: trace exhausted, replay
// halted, or context cancelled.
func (s *Session) Done() bool { return s.done }

// Err returns the context error that stopped the session, or nil if it
// ran (or is still running) normally.
func (s *Session) Err() error {
	if s.res.Cancelled {
		return s.res.CancelCause
	}
	return nil
}

// Result returns the session's result so far: partial while the session
// is running, final once Done. The returned value is live — it is the
// same Result the session appends to.
func (s *Session) Result() *Result { return s.res }

// Next replays the next command and returns its step outcome. It
// returns ok == false — without replaying anything — once the trace is
// exhausted, the replay has halted (§IV-C), or the session's context is
// cancelled or past its deadline; the partial Result remains available.
func (s *Session) Next() (step Step, ok bool) {
	if s.done {
		return Step{}, false
	}
	// Exhaustion is checked before cancellation: a session whose every
	// command already replayed is complete, not cancelled, even if the
	// context fired after the last command.
	if s.next >= len(s.trace.Commands) {
		s.done = true
		return Step{}, false
	}
	if err := context.Cause(s.ctx); err != nil {
		s.res.Cancelled = true
		s.res.CancelCause = err
		s.done = true
		return Step{}, false
	}
	idx := s.next
	cmd := s.trace.Commands[idx]
	s.next++

	if s.replayer.opts.Pacing == PaceRecorded {
		s.replayer.browser.Clock().Advance(cmd.ElapsedDuration())
	}
	for _, h := range s.hooks {
		if h.BeforeStep != nil {
			h.BeforeStep(idx, cmd, s.tab)
		}
	}
	step = s.replayer.playCommand(s.driver, idx, cmd, func(resolved Step) {
		for _, h := range s.hooks {
			if h.OnResolve != nil {
				h.OnResolve(resolved, s.tab)
			}
		}
	})
	if len(s.res.Steps) == cap(s.res.Steps) {
		// Reserve the rest of the trace at once: a fork's cloned result
		// has no spare capacity, and doubling from there would copy the
		// whole prefix again and again.
		s.res.Steps = slices.Grow(s.res.Steps, len(s.trace.Commands)-idx)
	}
	s.res.Steps = append(s.res.Steps, step)
	if step.Status == StepFailed {
		s.res.Failed++
		if errors.Is(step.Err, webdriver.ErrNoActiveClient) {
			// The master has no client to execute commands: the replay
			// halts (§IV-C). Remaining commands are not attempted.
			s.res.Halted = true
			s.done = true
		}
	} else {
		s.res.Played++
	}
	for _, h := range s.hooks {
		if h.AfterStep != nil {
			h.AfterStep(step, s.tab)
		}
	}
	return step, true
}

// Steps returns a single-use iterator that replays the remaining
// commands one step per iteration:
//
//	for step := range session.Steps() {
//	    ...
//	}
//
// Breaking out of the loop leaves the session paused at the next
// command; iteration can resume with another Steps (or Next) call.
func (s *Session) Steps() iter.Seq[Step] {
	return func(yield func(Step) bool) {
		for {
			step, ok := s.Next()
			if !ok {
				return
			}
			if !yield(step) {
				return
			}
		}
	}
}

// Run replays every remaining command and returns the final Result.
func (s *Session) Run() *Result {
	for {
		if _, ok := s.Next(); !ok {
			return s.res
		}
	}
}
