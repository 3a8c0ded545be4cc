package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/trace"

	// The corpus holds a calendar trace; link the plugin that serves it,
	// as warr-replay and warr-worker do.
	_ "github.com/dslab-epfl/warr/apps/calendar"
)

// corpusTrace is one archive of testdata/corpus.
type corpusTrace struct {
	name  string
	raw   []byte
	trace command.Trace
}

// loadCorpus reads the plain (not .nondet) archives of testdata/corpus,
// sorted by name; with names given, only those, in that order.
func loadCorpus(root string, names ...string) ([]corpusTrace, error) {
	dir := filepath.Join(root, "testdata", "corpus")
	if len(names) == 0 {
		paths, err := filepath.Glob(filepath.Join(dir, "*.warr"))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if n := strings.TrimSuffix(filepath.Base(p), ".warr"); !strings.HasSuffix(n, ".nondet") {
				names = append(names, n)
			}
		}
		slices.Sort(names)
	}
	var out []corpusTrace
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(dir, n+".warr"))
		if err != nil {
			return nil, err
		}
		_, tr, err := trace.ReadAuto(strings.NewReader(string(raw)))
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", n, err)
		}
		out = append(out, corpusTrace{name: n, raw: raw, trace: tr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no archives in %s", dir)
	}
	return out, nil
}

// replayMix gives compose-email — the trace that exercises XPath
// relaxation on every step — a quarter of the picks, and splits the
// rest evenly: 3 picks of each other trace to every len(traces)-1 of
// compose-email.
func replayMix(traces []corpusTrace) []int {
	counts := make([]int, len(traces))
	for i, t := range traces {
		if t.name == "compose-email" {
			counts[i] = len(traces) - 1
		} else {
			counts[i] = 3
		}
	}
	return counts
}

// names lists the traces' names, in order.
func names(traces []corpusTrace) []string {
	out := make([]string, len(traces))
	for i, t := range traces {
		out[i] = t.name
	}
	return out
}

// replayRef is the part of a replay result every replay of the same
// trace must reproduce.
type replayRef struct {
	complete, halted bool
	failed, steps    int
}

func refOf(res *replayer.Result) replayRef {
	return replayRef{complete: res.Complete(), halted: res.Halted, failed: res.Failed, steps: len(res.Steps)}
}

// replayWork is the replay workload: one corpus trace replayed in a
// fresh developer-mode environment per operation.
type replayWork struct {
	traces []corpusTrace
	ref    []replayRef
	counts []int
	picks  *picker
	newEnv func() *browser.Browser
}

func newReplay(seed int64, segment int, root string) (*replayWork, error) {
	traces, err := loadCorpus(root)
	if err != nil {
		return nil, err
	}
	counts := replayMix(traces)
	w := &replayWork{
		traces: traces,
		counts: counts,
		picks:  newPicker(seed, segment, counts),
		newEnv: registry.BrowserFactory(browser.DeveloperMode),
	}
	for _, t := range traces {
		res, _, err := replayer.New(w.newEnv(), replayer.Options{}).ReplayContext(context.Background(), t.trace)
		if err != nil {
			return nil, fmt.Errorf("reference replay of %s: %w", t.name, err)
		}
		w.ref = append(w.ref, refOf(res))
	}
	return w, nil
}

func (w *replayWork) mix() ([]string, []int) { return names(w.traces), w.counts }

func (w *replayWork) op(ctx context.Context, o *opTrace) (int, error) {
	i := w.picks.next()
	t := w.traces[i]
	var opts replayer.Options
	env := o.begin("registry.env_new", rootSpan)
	b := w.newEnv()
	o.end(env)
	rs := o.begin("replayer.replay", rootSpan)
	if o != nil {
		opts.Hooks = []replayer.Hooks{stepSpans(o, rs)}
	}
	res, _, err := replayer.New(b, opts).ReplayContext(ctx, t.trace)
	o.end(rs)
	if err != nil {
		return i, fmt.Errorf("replaying %s: %w", t.name, err)
	}
	if got, want := refOf(res), w.ref[i]; got != want {
		return i, fmt.Errorf("replaying %s: got %+v, reference %+v", t.name, got, want)
	}
	return i, nil
}

// stepSpans returns replay hooks that split a replay into its session
// start (until the first command), and per command the resolve phase
// (BeforeStep→OnResolve) and the action phase (OnResolve→AfterStep).
func stepSpans(o *opTrace, parent int) replayer.Hooks {
	cur := o.begin("replayer.session_start", parent)
	return replayer.Hooks{
		BeforeStep: func(int, command.Command, *browser.Tab) {
			o.end(cur)
			cur = o.begin("replayer.resolve", parent)
		},
		OnResolve: func(step replayer.Step, _ *browser.Tab) {
			o.end(cur)
			cur = o.begin("replayer.action", parent)
			switch step.Status {
			case replayer.StepRelaxed:
				o.count("replayer.relaxed", 1)
			case replayer.StepByCoordinates:
				o.count("replayer.coords", 1)
			}
		},
		AfterStep: func(step replayer.Step, _ *browser.Tab) {
			o.end(cur)
			cur = 0
			o.count("replayer.steps", 1)
			if step.Status == replayer.StepFailed {
				o.count("replayer.failed", 1)
			}
		},
	}
}

func (w *replayWork) layers(t *tracer, m map[string]float64) {
	env, _, _ := t.perOp("registry.env_new")
	start, _, _ := t.perOp("replayer.session_start")
	_, _, steps := t.perOp("replayer.steps")
	_, _, relaxed := t.perOp("replayer.relaxed")
	_, _, coords := t.perOp("replayer.coords")
	_, _, failed := t.perOp("replayer.failed")
	m["registry.env_new_us"] = us(env)
	m["replayer.session_start_us"] = us(start)
	m["replayer.resolve_us"] = us(t.meanDur("replayer.resolve"))
	m["replayer.action_us"] = us(t.meanDur("replayer.action"))
	m["replayer.steps"] = steps
	m["replayer.relaxed_ratio"] = ratio(relaxed, steps)
	m["replayer.coords_ratio"] = ratio(coords, steps)
	m["replayer.failed_steps"] = failed
}

func (w *replayWork) close() {}
