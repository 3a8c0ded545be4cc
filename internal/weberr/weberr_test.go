package weberr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/core"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// freshBrowser is the EnvFactory over the simulated applications.
func freshBrowser() *browser.Browser {
	return apps.NewEnv(browser.DeveloperMode).Browser
}

// recordEditSite records the Fig. 4 session.
func recordEditSite(t *testing.T) command.Trace {
	t.Helper()
	env := apps.NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	sc := apps.EditSiteScenario()
	if err := tab.Navigate(sc.StartURL); err != nil {
		t.Fatal(err)
	}
	rec := core.New(env.Clock)
	rec.Attach(tab)
	if err := sc.Run(env, tab); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

func inferTree(t *testing.T, tr command.Trace) *TaskTree {
	t.Helper()
	tree, err := InferTaskTree(freshBrowser, tr)
	if err != nil {
		t.Fatalf("InferTaskTree: %v", err)
	}
	return tree
}

func TestTaskTreeCoversEveryCommandOnce(t *testing.T) {
	tr := recordEditSite(t)
	tree := inferTree(t, tr)
	leaves := tree.Leaves()
	if len(leaves) != len(tr.Commands) {
		t.Fatalf("tree has %d commands, trace has %d", len(leaves), len(tr.Commands))
	}
	for i, idx := range leaves {
		if idx != i {
			t.Fatalf("depth-first order %v does not match chronological order", leaves)
		}
	}
}

func TestTaskTreeGroupsKeystrokeRuns(t *testing.T) {
	tr := recordEditSite(t)
	tree := inferTree(t, tr)
	// The 12 keystrokes into #content form one element run: a single
	// subtree under the run's first keystroke.
	var runLeader *TaskNode
	tree.Walk(func(n *TaskNode, d int) {
		if n.IsRoot() || tr.Commands[n.Index].Action != command.Type {
			return
		}
		if runLeader == nil || len(n.Children) > len(runLeader.Children) {
			runLeader = n
		}
	})
	if runLeader == nil {
		t.Fatal("no type commands in tree")
	}
	if got := len(runLeader.Children); got != len("Hello world!")-1 {
		t.Errorf("keystroke run has %d followers, want %d", got, len("Hello world!")-1)
	}
}

func TestTaskTreeHasDepth(t *testing.T) {
	tr := recordEditSite(t)
	tree := inferTree(t, tr)
	if d := tree.Depth(); d < 3 {
		t.Errorf("tree depth = %d, want >= 3 (root, subtasks, commands):\n%s", d, tree)
	}
}

func TestGrammarExpansionReproducesTrace(t *testing.T) {
	tr := recordEditSite(t)
	g := FromTaskTree(inferTree(t, tr))
	got := g.Expand()
	if got.StartURL != tr.StartURL {
		t.Errorf("StartURL = %q, want %q", got.StartURL, tr.StartURL)
	}
	if len(got.Commands) != len(tr.Commands) {
		t.Fatalf("expansion has %d commands, want %d", len(got.Commands), len(tr.Commands))
	}
	for i := range got.Commands {
		if got.Commands[i] != tr.Commands[i] {
			t.Fatalf("command %d differs:\n got %s\nwant %s", i, got.Commands[i], tr.Commands[i])
		}
	}
}

// refExpand is Expand as first written, appending from nil.
func refExpand(g *Grammar) command.Trace {
	out := command.Trace{StartURL: g.Trace.StartURL}
	var rec func(sym Symbol, depth int)
	rec = func(sym Symbol, depth int) {
		if depth > maxExpansionDepth {
			return
		}
		if sym.IsTerminal() {
			if sym.Cmd >= 0 && sym.Cmd < len(g.Trace.Commands) {
				out.Commands = append(out.Commands, g.Trace.Commands[sym.Cmd])
			}
			return
		}
		if r, ok := g.Rules[sym.Rule]; ok {
			for _, s := range r.RHS {
				rec(s, depth+1)
			}
		}
	}
	rec(Symbol{Rule: g.Start}, 0)
	return out
}

// TestExpandSizesExactly: every mutant expands to the reference trace
// in one allocation of exactly its length, cyclic substitutions (which
// recurse to maxExpansionDepth) included.
func TestExpandSizesExactly(t *testing.T) {
	g := FromTaskTree(inferTree(t, recordEditSite(t)))
	longest := Mutant{Grammar: g}
	for _, m := range Mutants(g, InjectOptions{}) {
		got, want := m.Grammar.Expand(), refExpand(m.Grammar)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mutant %s expands to %d commands, reference %d", m.Injection, len(got.Commands), len(want.Commands))
		}
		if cap(got.Commands) != len(got.Commands) {
			t.Errorf("mutant %s: cap %d for %d commands", m.Injection, cap(got.Commands), len(got.Commands))
		}
		if len(got.Commands) > len(longest.Grammar.Expand().Commands) {
			longest = m
		}
	}
	if n := len(longest.Grammar.Expand().Commands); n <= 3*len(g.Trace.Commands) {
		t.Fatalf("longest mutant has %d commands; want a cyclic substitution", n)
	}
	if allocs := testing.AllocsPerRun(10, func() { longest.Grammar.Expand() }); allocs != 1 {
		t.Errorf("Expand of %s allocated %v times, want 1", longest.Injection, allocs)
	}
}

func TestMutantsAreSingleError(t *testing.T) {
	tr := recordEditSite(t)
	g := FromTaskTree(inferTree(t, tr))
	mutants := Mutants(g, InjectOptions{})
	if len(mutants) == 0 {
		t.Fatal("no mutants generated")
	}
	for _, m := range mutants {
		// Exactly one rule may differ from the original grammar.
		diff := 0
		for name, r := range m.Grammar.Rules {
			orig := g.Rules[name]
			if len(r.RHS) != len(orig.RHS) {
				diff++
				continue
			}
			for i := range r.RHS {
				if r.RHS[i] != orig.RHS[i] {
					diff++
					break
				}
			}
		}
		if diff != 1 {
			t.Errorf("mutant %s touches %d rules, want exactly 1", m.Injection, diff)
		}
	}
}

func TestMutantCountFarBelowExhaustive(t *testing.T) {
	tr := recordEditSite(t)
	g := FromTaskTree(inferTree(t, tr))
	mutants := Mutants(g, InjectOptions{})
	exhaustive := ExhaustiveReorderCount(len(tr.Commands))
	if exhaustive.IsInt64() && int64(len(mutants)) >= exhaustive.Int64() {
		t.Errorf("grammar-confined injection (%d) not below exhaustive (%s)",
			len(mutants), exhaustive)
	}
	// A 14-command trace alone gives 14! > 87 billion reorderings.
	if exhaustive.Cmp(ExhaustiveReorderCount(13)) <= 0 {
		t.Error("exhaustive count must grow factorially")
	}
}

func TestFocusRulesConfineInjection(t *testing.T) {
	tr := recordEditSite(t)
	g := FromTaskTree(inferTree(t, tr))
	all := Mutants(g, InjectOptions{})
	focused := Mutants(g, InjectOptions{FocusRules: []string{"task"}})
	if len(focused) == 0 || len(focused) >= len(all) {
		t.Errorf("focused = %d, all = %d; focusing must reduce the count", len(focused), len(all))
	}
	for _, m := range focused {
		if m.Injection.Rule != "task" {
			t.Errorf("injection escaped focus: %s", m.Injection)
		}
	}
}

func TestNavigationCampaignRuns(t *testing.T) {
	tr := recordEditSite(t)
	g := FromTaskTree(inferTree(t, tr))
	rep := RunNavigationCampaign(freshBrowser, g, CampaignOptions{
		Inject:    InjectOptions{Kinds: []ErrorKind{Forget, Reorder}},
		MaxTraces: 40,
	})
	if rep.Generated == 0 || rep.Replayed == 0 {
		t.Fatalf("campaign did not run: %+v", rep)
	}
	// Reordering Save before the editor loads, or forgetting the edit
	// click, must surface at least one finding (the §V-C bug class) or a
	// replay failure.
	if len(rep.Findings) == 0 && rep.ReplayFailures == 0 {
		t.Errorf("campaign found nothing: %+v", rep)
	}
}

func TestPruningSkipsSharedFailedPrefixes(t *testing.T) {
	tr := recordEditSite(t)
	g := FromTaskTree(inferTree(t, tr))
	// Substitution errors produce many traces sharing broken prefixes.
	with := RunNavigationCampaign(freshBrowser, g, CampaignOptions{
		Inject: InjectOptions{Kinds: []ErrorKind{Substitute, Forget}},
	})
	without := RunNavigationCampaign(freshBrowser, g, CampaignOptions{
		Inject:         InjectOptions{Kinds: []ErrorKind{Substitute, Forget}},
		DisablePruning: true,
	})
	if with.Generated != without.Generated {
		t.Fatalf("same mutants expected: %d vs %d", with.Generated, without.Generated)
	}
	if with.Pruned == 0 {
		t.Skip("no shared failed prefixes in this grammar; pruning had nothing to do")
	}
	if with.Replayed >= without.Replayed {
		t.Errorf("pruning saved no replays: with=%d without=%d", with.Replayed, without.Replayed)
	}
}

func TestTimingCampaignFindsSitesBug(t *testing.T) {
	tr := recordEditSite(t)
	rep := RunTimingCampaign(freshBrowser, tr, CampaignOptions{})
	if len(rep.Findings) == 0 {
		t.Fatal("timing campaign missed the Google Sites uninitialized-variable bug")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Injection.Kind == Timing && strings.Contains(f.Observed.Error(), "TypeError") {
			found = true
		}
	}
	if !found {
		t.Errorf("findings do not include the TypeError: %+v", rep.Findings)
	}
}

func TestTimingCampaignCleanOnRobustApp(t *testing.T) {
	// Yahoo authentication has no asynchronous window; timing errors
	// must not produce findings.
	env := apps.NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	sc := apps.AuthenticateScenario()
	if err := tab.Navigate(sc.StartURL); err != nil {
		t.Fatal(err)
	}
	rec := core.New(env.Clock)
	rec.Attach(tab)
	if err := sc.Run(env, tab); err != nil {
		t.Fatal(err)
	}
	rep := RunTimingCampaign(freshBrowser, rec.Trace(), CampaignOptions{})
	if len(rep.Findings) != 0 {
		t.Errorf("robust app produced findings: %+v", rep.Findings)
	}
}

func TestConsoleOracle(t *testing.T) {
	env := apps.NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := ConsoleOracle(tab, &replayer.Result{}); err != nil {
		t.Errorf("clean tab flagged: %v", err)
	}
}

func TestTreeStringShowsCommands(t *testing.T) {
	tr := recordEditSite(t)
	tree := inferTree(t, tr)
	s := tree.String()
	if !strings.Contains(s, "click") || !strings.Contains(s, "type") {
		t.Errorf("tree rendering missing commands:\n%s", s)
	}
}

func TestGrammarString(t *testing.T) {
	tr := recordEditSite(t)
	g := FromTaskTree(inferTree(t, tr))
	s := g.String()
	if !strings.Contains(s, "task ->") {
		t.Errorf("grammar rendering missing start rule:\n%s", s)
	}
}

// TestDOMStateOracle drives a campaign with an application-specific
// oracle that inspects the final page instead of the console: after a
// correct edit-site session the view must show the typed text. Timing
// errors break that invariant even in runs where no console error fires
// (e.g. the keystrokes landed in a not-yet-editable editor).
func TestDOMStateOracle(t *testing.T) {
	tr := recordEditSite(t)
	pageSaved := func(tab *browser.Tab, res *replayer.Result) error {
		view := tab.MainFrame().Doc().GetElementByID("view")
		if view == nil {
			return fmt.Errorf("no #view on the final page (url %s)", tab.URL())
		}
		if got := strings.TrimSpace(view.TextContent()); got != "Hello world!" {
			return fmt.Errorf("final page shows %q, want the edited text", got)
		}
		return nil
	}

	// Sanity: the correct trace passes the oracle.
	b := freshBrowser()
	res, tab, err := replayer.New(b, replayer.Options{}).Replay(tr)
	if err != nil || !res.Complete() {
		t.Fatalf("correct replay failed: %v / %+v", err, res)
	}
	if err := pageSaved(tab, res); err != nil {
		t.Fatalf("oracle rejects the correct session: %v", err)
	}

	// The timing campaign with the DOM oracle finds the same bug class.
	rep := RunTimingCampaign(freshBrowser, tr, CampaignOptions{Oracle: pageSaved})
	if len(rep.Findings) == 0 {
		t.Fatal("DOM-state oracle found nothing under timing errors")
	}
}
