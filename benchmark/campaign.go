package main

import (
	"context"
	"fmt"
	"strings"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/weberr"
)

// tableII are the traces of the paper's Table II, the ones WebErr
// campaigns are run over.
var tableII = []string{"edit-site", "compose-email", "authenticate", "edit-spreadsheet"}

// campaignMix picks the four traces equally often.
var campaignMix = []int{1, 1, 1, 1}

// campaignOpts is how every campaign operation runs: the executor's trie
// scheduler over two parallel sessions, with prefix-failure pruning.
var campaignOpts = weberr.CampaignOptions{Parallelism: 2}

// campaignWork is the campaign workload and, with a distrib rig, the
// distrib workload: one WebErr navigation campaign per operation.
type campaignWork struct {
	traces []corpusTrace
	ref    []string
	picks  *picker
	newEnv campaign.EnvFactory
	rig    *distribRig // nil: execute in-process
}

func newCampaign(ctx context.Context, seed int64, segment int, root string, distributed bool) (*campaignWork, error) {
	traces, err := loadCorpus(root, tableII...)
	if err != nil {
		return nil, err
	}
	w := &campaignWork{
		traces: traces,
		picks:  newPicker(seed, segment, campaignMix),
		newEnv: registry.BrowserFactory(browser.DeveloperMode),
	}
	// The reference is the flat, sequential, in-process run; trie
	// scheduling and distribution must render identically.
	flat := campaignOpts
	flat.Parallelism, flat.DisablePrefixSharing = 1, true
	for _, t := range traces {
		tree, err := weberr.InferTaskTree(w.newEnv, t.trace)
		if err != nil {
			return nil, fmt.Errorf("inferring %s: %w", t.name, err)
		}
		plan := weberr.NavigationPlan(weberr.FromTaskTree(tree), flat)
		w.ref = append(w.ref, renderCampaign(weberr.NavigationExecutor(w.newEnv, flat).Execute(ctx, plan)))
	}
	if distributed {
		if w.rig, err = newDistribRig(ctx); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// renderCampaign renders what flat, trie-scheduled and distributed
// execution must agree on: per trace, whether it exposed a finding (F),
// failed to replay or was pruned (x), or completed cleanly (.), then the
// findings. Which failing traces were pruned rather than replayed may
// differ — a pruned trace is one whose replay would fail.
func renderCampaign(outs []campaign.Outcome) string {
	var b strings.Builder
	for _, out := range outs {
		switch {
		case out.Skipped || (out.Result != nil && out.Result.Cancelled):
			b.WriteByte('s')
		case out.Pruned || out.Result.Failed > 0 || out.Result.Halted:
			b.WriteByte('x')
		case out.Verdict != nil:
			b.WriteByte('F')
		default:
			b.WriteByte('.')
		}
	}
	for _, f := range weberr.ReportOutcomes(outs).Findings {
		fmt.Fprintf(&b, "\n%s: %v", f.Injection, f.Observed)
	}
	return b.String()
}

// tracedEnv wraps an environment factory so that each environment built
// for a traced operation is a registry.env_new span under parent and
// counts toward counter.
func tracedEnv(newEnv campaign.EnvFactory, o *opTrace, parent int, counter string) campaign.EnvFactory {
	if o == nil {
		return newEnv
	}
	return func() *browser.Browser {
		s := o.begin("registry.env_new", parent)
		b := newEnv()
		o.end(s)
		o.count(counter, 1)
		return b
	}
}

func (w *campaignWork) mix() ([]string, []int) { return names(w.traces), campaignMix }

func (w *campaignWork) op(ctx context.Context, o *opTrace) (int, error) {
	i := w.picks.next()
	t := w.traces[i]

	s := o.begin("weberr.infer", rootSpan)
	tree, err := weberr.InferTaskTree(tracedEnv(w.newEnv, o, s, "registry.envs.infer"), t.trace)
	o.end(s)
	if err != nil {
		return i, fmt.Errorf("inferring %s: %w", t.name, err)
	}
	s = o.begin("weberr.plan", rootSpan)
	plan := weberr.NavigationPlan(weberr.FromTaskTree(tree), campaignOpts)
	o.end(s)

	var outs []campaign.Outcome
	if w.rig == nil {
		s = o.begin("campaign.execute", rootSpan)
		outs = weberr.NavigationExecutor(tracedEnv(w.newEnv, o, s, "registry.envs.execute"), campaignOpts).Execute(ctx, plan)
		o.end(s)
	} else {
		s = o.begin("distrib.distribute", rootSpan)
		exec := weberr.NavigationExecutor(tracedEnv(w.newEnv, o, s, "registry.envs.execute"), campaignOpts)
		outs = w.rig.distribute(ctx, o, s, exec, plan)
		o.end(s)
	}

	s = o.begin("weberr.report", rootSpan)
	got := renderCampaign(outs)
	o.end(s)
	for _, out := range outs {
		switch {
		case out.Pruned:
			o.count("campaign.pruned", 1)
		case out.Result != nil:
			o.count("campaign.replayed", 1)
		}
	}
	o.count("campaign.generated", float64(len(outs)))
	if got != w.ref[i] {
		return i, fmt.Errorf("campaign over %s: rendered\n%s\nreference\n%s", t.name, got, w.ref[i])
	}
	return i, nil
}

func (w *campaignWork) layers(t *tracer, m map[string]float64) {
	env, _, _ := t.perOp("registry.env_new")
	infer, _, _ := t.perOp("weberr.infer")
	plan, _, _ := t.perOp("weberr.plan")
	_, _, replayed := t.perOp("campaign.replayed")
	_, _, pruned := t.perOp("campaign.pruned")
	_, _, generated := t.perOp("campaign.generated")
	_, _, envs := t.perOp("registry.envs.execute")
	m["registry.env_new_us"] = us(env)
	m["weberr.infer_ms"] = ms(infer)
	m["weberr.plan_us"] = us(plan)
	m["campaign.replayed"] = replayed
	m["campaign.pruned_ratio"] = ratio(pruned, generated)
	m["campaign.envs_per_replay"] = ratio(envs, replayed)
	if w.rig == nil {
		exec, _, _ := t.perOp("campaign.execute")
		m["campaign.execute_ms"] = ms(exec)
		return
	}
	w.rig.layers(t, m)
}

func (w *campaignWork) close() {
	if w.rig != nil {
		w.rig.close()
	}
}

// distSpec is how the engine would offer a campaign operation's plan to
// the pool.
var distSpec = jobs.DistSpec{
	Campaign:    "navigation",
	Mode:        browser.DeveloperMode,
	Replayer:    campaignOpts.Replayer,
	Parallelism: campaignOpts.Parallelism,
}
