package weberr

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// reportKey canonicalizes a full campaign report — counts and findings
// in order — for byte-exact comparison between execution strategies.
func reportKey(rep *Report) string {
	key := fmt.Sprintf("generated=%d replayed=%d pruned=%d skipped=%d failures=%d\n",
		rep.Generated, rep.Replayed, rep.Pruned, rep.Skipped, rep.ReplayFailures)
	for _, f := range rep.Findings {
		key += f.Injection.String() + " | " + f.Trace.CommandsText() + " | " + f.Observed.Error() + "\n"
	}
	return key
}

// TestSharedPrefixCampaignMatchesFlatOnTableII is the equivalence
// contract of the trace-trie scheduler: on every Table II scenario,
// for both campaign classes and both pruning settings, the shared-
// prefix execution must produce a byte-identical report — same
// replayed/pruned/failure counts, same findings in the same order —
// as flat execution, which replays every trace from command zero.
func TestSharedPrefixCampaignMatchesFlatOnTableII(t *testing.T) {
	for _, sc := range apps.TableIIScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tr := recordScenario(t, sc)
			tree, err := InferTaskTree(freshBrowser, tr)
			if err != nil {
				t.Fatalf("InferTaskTree: %v", err)
			}
			g := FromTaskTree(tree)

			for _, pruning := range []bool{false, true} {
				flat := RunNavigationCampaign(freshBrowser, g, CampaignOptions{
					Replayer:             replayer.Options{Pacing: replayer.PaceNone},
					DisablePruning:       !pruning,
					DisablePrefixSharing: true,
				})
				shared := RunNavigationCampaign(freshBrowser, g, CampaignOptions{
					Replayer:       replayer.Options{Pacing: replayer.PaceNone},
					DisablePruning: !pruning,
				})
				if got, want := reportKey(shared), reportKey(flat); got != want {
					t.Errorf("navigation campaign (pruning=%v): shared-prefix report diverges from flat:\nflat:\n%s\nshared:\n%s",
						pruning, want, got)
				}
			}

			flatTiming := RunTimingCampaign(freshBrowser, tr, CampaignOptions{DisablePrefixSharing: true})
			sharedTiming := RunTimingCampaign(freshBrowser, tr, CampaignOptions{})
			if got, want := reportKey(sharedTiming), reportKey(flatTiming); got != want {
				t.Errorf("timing campaign: shared-prefix report diverges from flat:\nflat:\n%s\nshared:\n%s", want, got)
			}
		})
	}
}

// TestSharedPrefixCampaignParallelWorkersAgree runs the trie scheduler
// with concurrent workers cooperating on one trie — forks handed
// across goroutines, one shared PruneTable — and requires the findings
// to match the sequential trie run. The race detector (CI's race job)
// watches the handoffs.
func TestSharedPrefixCampaignParallelWorkersAgree(t *testing.T) {
	sc := apps.EditSiteScenario()
	tr := recordScenario(t, sc)
	tree, err := InferTaskTree(freshBrowser, tr)
	if err != nil {
		t.Fatalf("InferTaskTree: %v", err)
	}
	g := FromTaskTree(tree)

	seq := RunNavigationCampaign(freshBrowser, g, CampaignOptions{
		Replayer: replayer.Options{Pacing: replayer.PaceNone},
	})
	par := RunNavigationCampaign(freshBrowser, g, CampaignOptions{
		Replayer:    replayer.Options{Pacing: replayer.PaceNone},
		Parallelism: 8,
	})
	if got, want := findingKeys(par), findingKeys(seq); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("parallel trie findings %v, sequential %v", got, want)
	}
	if par.Generated != seq.Generated {
		t.Errorf("parallel generated %d, sequential %d", par.Generated, seq.Generated)
	}
}

// renderOutcomes renders what every execution strategy must agree on:
// per job, a finding (F), a failed or pruned replay (x) or a clean
// replay (.), then the findings. Which failing traces were pruned rather
// than replayed may shift with scheduling; a pruned trace is one whose
// replay would fail.
func renderOutcomes(outs []campaign.Outcome) string {
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
	for _, f := range ReportOutcomes(outs).Findings {
		fmt.Fprintf(&b, "\n%s: %v", f.Injection, f.Observed)
	}
	return b.String()
}

// slowSnapshotApp hosts states whose first Declare call takes 5 ms. A
// fork's copy-on-write snapshot makes that call on its fresh copy just
// before copying the parent's state into it, so the delay widens the
// window in which taking the snapshot overlaps the parent's next
// request.
type slowSnapshotApp struct{ registry.App }

func (a slowSnapshotApp) NewState() registry.AppState {
	return &slowSnapshotState{AppState: a.App.NewState()}
}

type slowSnapshotState struct {
	registry.AppState
	once sync.Once
}

func (s *slowSnapshotState) Declare() (*sync.Mutex, any, *webapp.Server) {
	s.once.Do(func() { time.Sleep(5 * time.Millisecond) })
	return s.AppState.(registry.Declarer).Declare()
}

// TestPoolMatchesFlatOnTableII: at every Parallelism, on every Table II
// trace, a navigation campaign renders exactly as the flat sequential
// run — through Execute, and sharded through ExecuteShard. The
// concurrent runs use slow-snapshot worlds and repeat, so that a
// scheduling-dependent divergence, such as a fork's snapshot catching
// its parent's later login, shows.
func TestPoolMatchesFlatOnTableII(t *testing.T) {
	const rounds = 2
	for _, sc := range apps.TableIIScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			// Every application is hosted; the scenario's own one, the
			// only one its campaign mutates, snapshots slowly.
			var hosted []registry.App
			for _, a := range registry.Default.Apps() {
				if a.Name() == sc.App {
					a = slowSnapshotApp{a}
				}
				hosted = append(hosted, a)
			}
			slowEnv := registry.BrowserFactory(browser.DeveloperMode, registry.WithApps(hosted...))
			tr := recordScenario(t, sc)
			tree, err := InferTaskTree(freshBrowser, tr)
			if err != nil {
				t.Fatalf("InferTaskTree: %v", err)
			}
			g := FromTaskTree(tree)
			flat := CampaignOptions{Parallelism: 1, DisablePrefixSharing: true}
			jobs := NavigationPlan(g, flat)
			want := renderOutcomes(NavigationExecutor(freshBrowser, flat).Execute(nil, jobs))

			for round := range rounds {
				for _, p := range []int{1, 2, 4, 8} {
					opts := CampaignOptions{Parallelism: p}
					newEnv := slowEnv
					if p == 1 {
						newEnv = freshBrowser // nothing runs concurrently
					}
					if got := renderOutcomes(NavigationExecutor(newEnv, opts).Execute(nil, jobs)); got != want {
						t.Errorf("round %d, Parallelism %d: Execute renders\n%s\nflat renders\n%s", round, p, got, want)
					}
					plan, ok := NavigationExecutor(newEnv, opts).PlanShards(nil, jobs, 0)
					if !ok {
						t.Fatalf("Parallelism %d: campaign not distributable", p)
					}
					for _, sh := range plan.Shards {
						shardJobs := make([]campaign.Job, len(sh.Jobs))
						for i, ji := range sh.Jobs {
							shardJobs[i] = campaign.Job{Trace: jobs[ji].Trace, Pacing: jobs[ji].Pacing}
						}
						outs := NavigationExecutor(newEnv, opts).ExecuteShard(nil, shardJobs, sh.Depth)
						if err := plan.Merge(sh, outs); err != nil {
							t.Fatal(err)
						}
					}
					if got := renderOutcomes(plan.Outcomes); got != want {
						t.Errorf("round %d, Parallelism %d: ExecuteShard renders\n%s\nflat renders\n%s", round, p, got, want)
					}
				}
			}
		})
	}
}
