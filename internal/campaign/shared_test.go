package campaign

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// TestPrunableAllocationFree pins the PruneTable satellite: the lookup
// path must not allocate, however long the trace or full the table.
func TestPrunableAllocationFree(t *testing.T) {
	table := NewPruneTable()
	var traces []command.Trace
	for i := 0; i < 50; i++ {
		tr := command.Trace{StartURL: "http://sites.test/"}
		for j := 0; j <= i%10; j++ {
			tr.Commands = append(tr.Commands, command.Command{
				Action: command.Click,
				XPath:  fmt.Sprintf(`//div/span[@id="el-%d-%d"]`, i, j),
				X:      i, Y: j, Elapsed: j,
			})
		}
		traces = append(traces, tr)
		if i%3 == 0 {
			table.RecordFailure(tr, len(tr.Commands)-1)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, tr := range traces {
			table.Prunable(tr)
		}
	})
	if allocs != 0 {
		t.Fatalf("Prunable allocated %.1f objects per run, want 0", allocs)
	}
}

// TestDigestMatchesSerialization: two commands digest equal exactly
// when their serializations are equal, and the chained trace digest
// distinguishes permutations and prefix lengths.
func TestDigestMatchesSerialization(t *testing.T) {
	cmds := []command.Command{
		{Action: command.Click, XPath: `//div[@id="a"]`, X: 1, Y: 2, Elapsed: 3},
		{Action: command.Click, XPath: `//div[@id="a"]`, X: 1, Y: 2, Elapsed: 4},
		{Action: command.DoubleClick, XPath: `//div[@id="a"]`, X: 1, Y: 2, Elapsed: 3},
		{Action: command.Drag, XPath: `//div[@id="a"]`, DX: 1, DY: 2, Elapsed: 3},
		{Action: command.Type, XPath: `//td/div`, Key: "H", Code: 72, Elapsed: 1},
		{Action: command.Type, XPath: `//td/div`, Key: "H,7", Code: 2, Elapsed: 1},
	}
	seen := make(map[prefixDigest]string)
	for _, c := range cmds {
		d := commandDigest(digestSeed(), c)
		if prev, ok := seen[d]; ok && prev != c.String() {
			t.Errorf("digest collision between %q and %q", prev, c.String())
		}
		seen[d] = c.String()
	}
	// Same commands, different order → different digests.
	ab := commandDigest(commandDigest(digestSeed(), cmds[0]), cmds[1])
	ba := commandDigest(commandDigest(digestSeed(), cmds[1]), cmds[0])
	if ab == ba {
		t.Error("chained digest ignores command order")
	}
	// A prefix digests differently from the full trace.
	if commandDigest(digestSeed(), cmds[0]) == ab {
		t.Error("prefix digest equals extended digest")
	}
}

// TestTrieGroupsSharedPrefixes: jobs derived from one base trace by
// single-position mutation share the expected trie structure, and the
// job accounting is exact.
func TestTrieGroupsSharedPrefixes(t *testing.T) {
	base := command.Trace{StartURL: "http://sites.test/"}
	for j := 0; j < 5; j++ {
		base.Commands = append(base.Commands, command.Command{
			Action: command.Click, XPath: fmt.Sprintf(`//div[@id="c%d"]`, j), Elapsed: 1,
		})
	}
	var jobs []Job
	jobs = append(jobs, Job{Trace: base})
	for j := 0; j < 5; j++ {
		mutant := base.Clone()
		mutant.Commands[j].XPath = `//div[@id="mut"]`
		jobs = append(jobs, Job{Trace: mutant})
	}
	roots := buildTrie(jobs, replayer.PaceNone)
	if len(roots) != 1 {
		t.Fatalf("%d roots, want 1 (same start URL and pacing)", len(roots))
	}
	root := roots[0].node
	if got := len(root.collectJobs(nil)); got != len(jobs) {
		t.Fatalf("root accounts %d jobs, want %d", got, len(jobs))
	}
	if root.minJob() != 0 {
		t.Fatalf("root minJob = %d, want 0", root.minJob())
	}
	if shared := sharedCommands(roots, jobs); shared <= 0 {
		t.Fatalf("sharedCommands = %d, want > 0 for overlapping prefixes", shared)
	}
	// Divergent pacing splits roots.
	jobs[1].Pacing = replayer.PaceRecorded
	if got := len(buildTrie(jobs, replayer.PaceNone)); got != 2 {
		t.Fatalf("%d roots after pacing split, want 2", got)
	}
}

// editJobs builds navigation-mutant-shaped jobs over the edit-site
// trace: the base trace plus one substituted command per position.
func editJobs(t *testing.T) []Job {
	t.Helper()
	tr := recordEditSite(t)
	jobs := []Job{{Trace: tr}}
	for j := range tr.Commands {
		mutant := tr.Clone()
		// Substitute each command with an earlier one — the §V-A
		// substitution error shape.
		mutant.Commands[j] = tr.Commands[(j+3)%len(tr.Commands)]
		jobs = append(jobs, Job{Trace: mutant})
	}
	return jobs
}

// outcomeKey canonicalizes an outcome for equality checks.
func outcomeKey(out Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d pruned=%v skipped=%v err=%v", out.Index, out.Pruned, out.Skipped, out.Err != nil)
	if out.Result != nil {
		fmt.Fprintf(&b, " played=%d failed=%d halted=%v", out.Result.Played, out.Result.Failed, out.Result.Halted)
		for _, s := range out.Result.Steps {
			fmt.Fprintf(&b, " [%d %v %q]", s.Index, s.Status, s.UsedXPath)
		}
	}
	if out.Verdict != nil {
		fmt.Fprintf(&b, " verdict=%q", out.Verdict.Error())
	}
	return b.String()
}

// TestSharedExecutionMatchesFlatPerOutcome compares trie and flat
// execution outcome by outcome — statuses, step lists, prune/skip
// flags — for both pruning settings, at the executor level.
func TestSharedExecutionMatchesFlatPerOutcome(t *testing.T) {
	jobs := editJobs(t)
	for _, pruning := range []bool{true, false} {
		flatExec := New(freshBrowser, Options{DisablePruning: !pruning, DisablePrefixSharing: true,
			Replayer: replayer.Options{Pacing: replayer.PaceNone}})
		sharedExec := New(freshBrowser, Options{DisablePruning: !pruning,
			Replayer: replayer.Options{Pacing: replayer.PaceNone}})
		flat := flatExec.Execute(nil, jobs)
		shared := sharedExec.Execute(nil, jobs)
		for i := range jobs {
			if got, want := outcomeKey(shared[i]), outcomeKey(flat[i]); got != want {
				t.Errorf("pruning=%v job %d:\nflat:   %s\nshared: %s", pruning, i, want, got)
			}
		}
	}
}

// TestSharedExecutionConcurrentWorkers exercises the trie scheduler's
// worker cooperation — forks handed across goroutines under one shared
// PruneTable — and checks index-exact outcome placement. CI's race job
// runs this under the race detector.
func TestSharedExecutionConcurrentWorkers(t *testing.T) {
	jobs := editJobs(t)
	seq := New(freshBrowser, Options{Replayer: replayer.Options{Pacing: replayer.PaceNone}}).Execute(nil, jobs)
	par := New(freshBrowser, Options{Parallelism: 8,
		Replayer: replayer.Options{Pacing: replayer.PaceNone}}).Execute(nil, jobs)
	if len(par) != len(jobs) {
		t.Fatalf("%d outcomes, want %d", len(par), len(jobs))
	}
	for i := range jobs {
		if par[i].Index != i {
			t.Fatalf("outcome %d carries index %d", i, par[i].Index)
		}
		// Replayed results must agree with the sequential run.
		if (par[i].Result == nil) != (seq[i].Result == nil) {
			continue // pruned/replayed split may shift under parallelism
		}
		if par[i].Result != nil && seq[i].Result != nil {
			if par[i].Result.Failed != seq[i].Result.Failed {
				t.Errorf("job %d: parallel failed=%d, sequential failed=%d",
					i, par[i].Result.Failed, seq[i].Result.Failed)
			}
		}
	}
}

// TestPoolRunsBranchesOfOneRootConcurrently: at Parallelism 2, a
// campaign whose trie has a single root must have two sessions in
// flight at once — the second worker takes a branch unit the first
// shared. Each job's oracle waits, up to a deadline, until a second
// oracle call is in flight at the same time.
func TestPoolRunsBranchesOfOneRootConcurrently(t *testing.T) {
	jobs := editJobs(t)
	if roots := buildTrie(jobs, replayer.PaceNone); len(roots) != 1 {
		t.Fatalf("%d trie roots, want 1", len(roots))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var inFlight atomic.Int32
	met := make(chan struct{})
	var meet sync.Once
	inspect := func(Job, *replayer.Result, *browser.Tab) error {
		if inFlight.Add(1) >= 2 {
			meet.Do(func() { close(met) })
		}
		select {
		case <-met:
		case <-ctx.Done():
		}
		inFlight.Add(-1)
		return nil
	}
	New(freshBrowser, Options{Parallelism: 2, Inspect: inspect,
		Replayer: replayer.Options{Pacing: replayer.PaceNone}}).Execute(nil, jobs)
	select {
	case <-met:
	default:
		t.Fatal("no two sessions of the single-root campaign were in flight at once")
	}
}
