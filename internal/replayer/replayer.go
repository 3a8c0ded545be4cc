// Package replayer implements the WaRR Replayer (paper §III-B, §IV-C):
// it reads WaRR Commands and simulates the recorded user interaction
// through the webdriver against a (normally developer-mode) browser.
//
// Its distinctive mechanism is progressive XPath relaxation: the replayer
// first assumes the application's HTML structure is constant and uses the
// recorded expression — giving timing-accurate replay — and only when
// that expression no longer matches does it progressively simplify the
// expression (drop attributes, keep only name, discard prefixes) until an
// element is found. Click commands additionally carry window coordinates
// as a last-resort identification fallback.
package replayer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/webdriver"
	"github.com/dslab-epfl/warr/internal/xpath"
)

// Pacing selects how the replayer spaces commands in virtual time.
type Pacing int

// Pacing modes.
const (
	// PaceRecorded advances the clock by each command's recorded elapsed
	// time — timing-accurate interaction replay.
	PaceRecorded Pacing = iota + 1
	// PaceNone replays commands with no wait time — WebErr's timing-
	// error stress mode (§V-B).
	PaceNone
)

// Options configure a Replayer. Their JSON form is what the job
// journal and the distributed wire carry, so another process replays
// with the same options; Hooks are code and never serialize.
type Options struct {
	// Pacing defaults to PaceRecorded.
	Pacing Pacing `json:"pacing"`
	// DisableRelaxation turns off XPath relaxation (ablation).
	DisableRelaxation bool `json:"disableRelaxation,omitempty"`
	// DisableCoordinateFallback turns off the click-coordinate backup
	// identification (ablation).
	DisableCoordinateFallback bool `json:"disableCoordinateFallback,omitempty"`
	// Driver selects webdriver behaviour (the ChromeDriver defect
	// switches).
	Driver webdriver.Options `json:"driver"`
	// Hooks is the observer chain every session of this replayer starts
	// with, invoked in order around each command (BeforeStep, OnResolve,
	// AfterStep). WebErr's grammar inference and AUsER's progressive
	// snapshotting are hooks. Per-session hooks can be appended with
	// Session.AddHooks.
	Hooks []Hooks `json:"-"`
}

// StepStatus describes how one command was resolved and executed.
type StepStatus int

// Step statuses.
const (
	// StepOK: the recorded XPath matched directly.
	StepOK StepStatus = iota + 1
	// StepRelaxed: a relaxation heuristic found the element.
	StepRelaxed
	// StepByCoordinates: the click-coordinate fallback found the element.
	StepByCoordinates
	// StepFailed: the command could not be replayed.
	StepFailed
)

func (s StepStatus) String() string {
	switch s {
	case StepOK:
		return "ok"
	case StepRelaxed:
		return "relaxed"
	case StepByCoordinates:
		return "by-coordinates"
	case StepFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Step is the outcome of replaying one command.
type Step struct {
	Index  int
	Cmd    command.Command
	Status StepStatus
	// UsedXPath is the expression that matched (original or relaxed). It
	// is empty when no expression matched — in particular when the
	// coordinate fallback resolved the element, including the case where
	// the recorded expression did not even parse.
	UsedXPath string
	Heuristic string // relaxation heuristic, "" for direct matches
	Err       error
}

// Result summarizes a replay. While a Session is running it is the
// partial result so far; cancelling the session's context leaves the
// steps replayed up to the cancellation point in place.
type Result struct {
	Steps  []Step
	Played int
	Failed int
	// Halted is set when the driver lost its active client and the
	// replay could not continue (ChromeDriver defect 4 without the fix).
	Halted bool
	// Cancelled is set when the session's context was cancelled (or its
	// deadline passed) between commands; CancelCause records why.
	// Remaining commands were not attempted.
	Cancelled   bool
	CancelCause error
}

// Complete reports whether every command replayed.
func (r *Result) Complete() bool { return r.Failed == 0 && !r.Halted && !r.Cancelled }

// Replayer replays WaRR command traces.
type Replayer struct {
	browser *browser.Browser
	opts    Options
}

// New returns a replayer driving the given browser. For full replay
// fidelity the browser should be a DeveloperMode build (§IV-C); a
// UserMode browser replays with degraded keyboard-event parameters.
func New(b *browser.Browser, opts Options) *Replayer {
	if opts.Pacing == 0 {
		opts.Pacing = PaceRecorded
	}
	return &Replayer{browser: b, opts: opts}
}

// The compile cache is process-global: a compiled path and its relaxation
// sequence are immutable, the same recorded expressions recur across
// every replay of a trace, and WebErr campaigns construct thousands of
// replayers over the same trace. Parse errors are cached too — a trace
// with an unparseable expression hits the coordinate fallback on every
// replay.
//
// The cache is bounded by two generations of at most compileCacheGen
// entries each. Inserts go to the current generation; when it fills, the
// previous generation is dropped and the current one takes its place.
// A hit in the previous generation re-inserts the entry into the current
// one, so expressions that stay hot survive rotation — a long campaign
// crossing the cap evicts only entries cold for a full generation,
// instead of cold-starting every hot expression at once.
const compileCacheGen = 4096

var (
	compileMu   sync.RWMutex
	compileCur  = make(map[string]compiledEntry)
	compilePrev map[string]compiledEntry
)

type compiledEntry struct {
	c   *xpath.Compiled
	err error
}

func compile(expr string) (*xpath.Compiled, error) {
	compileMu.RLock()
	if e, ok := compileCur[expr]; ok {
		// The common case — a current-generation hit — never takes the
		// write lock, so concurrent campaign workers don't serialize on
		// the hot path.
		compileMu.RUnlock()
		return e.c, e.err
	}
	e, ok := compilePrev[expr]
	compileMu.RUnlock()
	if !ok {
		e = compiledEntry{}
		var p xpath.Path
		if p, e.err = xpath.Parse(expr); e.err == nil {
			e.c = xpath.Compile(p)
		}
	}
	compileMu.Lock()
	if _, hot := compileCur[expr]; !hot {
		if len(compileCur) >= compileCacheGen {
			compilePrev, compileCur = compileCur, make(map[string]compiledEntry, compileCacheGen)
		}
		compileCur[expr] = e
	}
	compileMu.Unlock()
	return e.c, e.err
}

// compileCacheLen reports the number of cached entries across both
// generations (an expression promoted from the previous generation may
// momentarily be counted twice). Test hook.
func compileCacheLen() int {
	compileMu.RLock()
	defer compileMu.RUnlock()
	return len(compileCur) + len(compilePrev)
}

// resetCompileCache empties the cache. Test hook.
func resetCompileCache() {
	compileMu.Lock()
	defer compileMu.Unlock()
	compileCur = make(map[string]compiledEntry)
	compilePrev = nil
}

// Replay plays the trace in a fresh tab and returns the per-step outcomes
// together with the tab (whose final page state the caller's oracle
// inspects). It is a thin wrapper over a Session run to completion.
func (r *Replayer) Replay(tr command.Trace) (*Result, *browser.Tab, error) {
	return r.ReplayContext(context.Background(), tr)
}

// ReplayContext is Replay under a context: the session stops at the
// first command boundary after ctx is cancelled or its deadline passes,
// and the partial Result — with Cancelled set — is returned. The error
// return is non-nil only when the start page failed to load.
func (r *Replayer) ReplayContext(ctx context.Context, tr command.Trace) (*Result, *browser.Tab, error) {
	s, err := r.NewSession(ctx, tr)
	if err != nil {
		return nil, s.Tab(), err
	}
	return s.Run(), s.Tab(), nil
}

func (r *Replayer) playCommand(driver *webdriver.Driver, idx int, cmd command.Command, onResolve func(Step)) Step {
	step := Step{Index: idx, Cmd: cmd}
	el, used, heuristic, err := r.resolve(driver, cmd)
	if err != nil {
		step.Status = StepFailed
		step.Err = err
		if onResolve != nil {
			onResolve(step)
		}
		return step
	}
	step.UsedXPath = used
	step.Heuristic = heuristic
	switch {
	case heuristic == "coordinates":
		step.Status = StepByCoordinates
	case heuristic != "":
		step.Status = StepRelaxed
	default:
		step.Status = StepOK
	}
	if onResolve != nil {
		onResolve(step)
	}

	if err := r.execute(el, cmd); err != nil {
		step.Status = StepFailed
		step.Err = err
	}
	return step
}

// resolve finds the command's target element: recorded XPath first, then
// progressive relaxation, then the coordinate fallback for clicks.
func (r *Replayer) resolve(driver *webdriver.Driver, cmd command.Command) (el *webdriver.Element, used, heuristic string, err error) {
	c, parseErr := compile(cmd.XPath)
	if parseErr == nil {
		el, err = driver.FindElementPath(c.Path)
		if err == nil {
			return el, cmd.XPath, "", nil
		}
		if errors.Is(err, webdriver.ErrNoActiveClient) {
			return nil, "", "", err
		}
		if !r.opts.DisableRelaxation {
			for _, relax := range c.Relaxations() {
				rel, rerr := driver.FindElementPath(relax.Path)
				if rerr == nil {
					return rel, relax.Expr, relax.Heuristic, nil
				}
				if errors.Is(rerr, webdriver.ErrNoActiveClient) {
					return nil, "", "", rerr
				}
			}
		}
	} else {
		err = parseErr
	}

	if !r.opts.DisableCoordinateFallback &&
		(cmd.Action == command.Click || cmd.Action == command.DoubleClick) {
		cel, cerr := driver.FindByCoordinates(cmd.X, cmd.Y)
		if cerr == nil {
			// The recorded coordinates identified the element; no XPath
			// expression matched — cmd.XPath may not even have parsed —
			// so none is reported as used.
			return cel, "", "coordinates", nil
		}
		if errors.Is(cerr, webdriver.ErrNoActiveClient) {
			return nil, "", "", cerr
		}
	}
	if err == nil {
		err = fmt.Errorf("replayer: %w: %s", webdriver.ErrElementNotFound, cmd.XPath)
	}
	return nil, "", "", err
}

func (r *Replayer) execute(el *webdriver.Element, cmd command.Command) error {
	switch cmd.Action {
	case command.Click:
		return el.Click()
	case command.DoubleClick:
		return el.DoubleClick()
	case command.Drag:
		return el.Drag(cmd.DX, cmd.DY)
	case command.Type:
		return el.TypeKey(cmd.Key, cmd.Code)
	default:
		return fmt.Errorf("replayer: unknown action %v", cmd.Action)
	}
}
