package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/humanerr"
)

func TestFig3StackShowsEngineLayering(t *testing.T) {
	stack, err := Fig3Stack()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(stack, "\n")
	// The paper's Fig. 3 layers, in our packages: the engine event
	// handler, the web view, and the renderer's IPC entry point.
	for _, frame := range []string{"HandleMousePressEvent", "HandleInputEvent", "OnMessageReceived"} {
		if !strings.Contains(joined, frame) {
			t.Errorf("stack misses %s:\n%s", frame, joined)
		}
	}
	// The engine frame must be above (before) the renderer frame.
	if strings.Index(joined, "HandleMousePressEvent") > strings.Index(joined, "OnMessageReceived") {
		t.Errorf("engine frame below renderer frame:\n%s", joined)
	}
}

func TestFig4TraceShape(t *testing.T) {
	tr, err := Fig4Trace()
	if err != nil {
		t.Fatal(err)
	}
	cmds := tr.Commands
	if len(cmds) != 14 {
		t.Fatalf("trace has %d commands, Fig. 4 has 14:\n%s", len(cmds), tr.CommandsText())
	}
	// Fig. 4 shape: click //div/span[@id="start"], 12 type commands into
	// //td/div[@id="content"], click //td/div[text()="Save"].
	if cmds[0].Action != command.Click || cmds[0].XPath != `//div/span[@id="start"]` {
		t.Errorf("first command = %s", cmds[0])
	}
	text := ""
	for _, c := range cmds[1:13] {
		if c.Action != command.Type || c.XPath != `//td/div[@id="content"]` {
			t.Errorf("middle command = %s", c)
		}
		text += c.Key
	}
	if text != "Hello world!" {
		t.Errorf("typed text = %q", text)
	}
	last := cmds[13]
	if last.Action != command.Click || last.XPath != `//td/div[text()="Save"]` {
		t.Errorf("last command = %s", last)
	}
	// Paper: "H" logs with code 72 (combined Shift effect), "!" with the
	// code of its key (49, the 1 key).
	if cmds[1].Key != "H" || cmds[1].Code != 72 {
		t.Errorf("H logged as %s", cmds[1])
	}
	if cmds[12].Key != "!" || cmds[12].Code != 49 {
		t.Errorf("! logged as %s", cmds[12])
	}
	// Elapsed fields are nonzero (paced typing).
	for i, c := range cmds {
		if i > 0 && c.Elapsed == 0 {
			t.Errorf("command %d has zero elapsed time", i)
		}
	}
}

func TestFig6TreeShape(t *testing.T) {
	tree, err := Fig6Tree()
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d < 3 {
		t.Errorf("task tree depth = %d, want >= 3:\n%s", d, tree)
	}
	if got := len(tree.Leaves()); got != 14 {
		t.Errorf("tree covers %d commands, want 14", got)
	}
}

func TestFig6GrammarRoundTrip(t *testing.T) {
	g, err := Fig6Grammar()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Expand().Commands); got != 14 {
		t.Errorf("grammar expansion has %d commands, want 14", got)
	}
}

// table1Subset keeps unit-test latency reasonable; the bench and
// warr-bench run all 186.
func table1Subset(n int) []string {
	return humanerr.Queries186[:n]
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(Table1Options{Queries: table1Subset(60), Seed: 2011})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Engine] = r
	}
	google, bing, yahoo := byName["Google"], byName["Bing"], byName["Yahoo!"]

	// The paper's ordering: Google 100% > Yahoo 84.4% > Bing 59.1%.
	if google.Percent() != 100 {
		t.Errorf("Google = %.1f%%, want 100%%", google.Percent())
	}
	if !(yahoo.Percent() > bing.Percent()) {
		t.Errorf("Yahoo (%.1f%%) should beat Bing (%.1f%%)", yahoo.Percent(), bing.Percent())
	}
	if !(google.Percent() > yahoo.Percent()) {
		t.Errorf("Google (%.1f%%) should beat Yahoo (%.1f%%)", google.Percent(), yahoo.Percent())
	}
	// Bing's distance-1 corrector must miss a substantial share
	// (transpositions are distance 2) but not everything.
	if bing.Percent() < 30 || bing.Percent() > 90 {
		t.Errorf("Bing = %.1f%%, outside plausible band", bing.Percent())
	}
}

func TestTable1FullPipelineMatchesFastPath(t *testing.T) {
	queries := table1Subset(12)
	fast, err := Table1(Table1Options{Queries: queries, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Table1(Table1Options{Queries: queries, Seed: 7, FullPipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if fast[i] != full[i] {
			t.Errorf("row %d differs: fast=%+v full=%+v", i, fast[i], full[i])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Paper's Table II: WaRR complete on all four; Selenium IDE partial
	// on all but Yahoo/Authenticate.
	want := map[string]struct{ warr, sel Completeness }{
		"Edit site":        {Complete, Partial},
		"Compose email":    {Complete, Partial},
		"Authenticate":     {Complete, Complete},
		"Edit spreadsheet": {Complete, Partial},
	}
	for _, r := range rows {
		w, ok := want[r.Scenario]
		if !ok {
			t.Errorf("unexpected scenario %q", r.Scenario)
			continue
		}
		if r.WaRR != w.warr || r.Selenium != w.sel {
			t.Errorf("%s: WaRR=%s Selenium=%s, want WaRR=%s Selenium=%s",
				r.Scenario, r.WaRR, r.Selenium, w.warr, w.sel)
		}
	}
}

func TestOverheadBelowPerception(t *testing.T) {
	r, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if r.Actions == 0 {
		t.Fatal("no actions recorded")
	}
	if !r.BelowPerception {
		t.Errorf("per-action logging %s exceeds the 100 ms perception threshold", r.PerAction)
	}
}

func TestSitesBugFound(t *testing.T) {
	r, err := SitesBug()
	if err != nil {
		t.Fatal(err)
	}
	if !r.BugFound {
		t.Fatalf("the §V-C bug was not found: %+v", r.Report)
	}
	if !strings.Contains(r.Signal, "TypeError") {
		t.Errorf("signal = %q", r.Signal)
	}
}

func TestFormatters(t *testing.T) {
	rows := []Table1Row{{Engine: "Google", Queries: 186, Detected: 186}}
	if s := FormatTable1(rows); !strings.Contains(s, "100.0%") {
		t.Errorf("FormatTable1:\n%s", s)
	}
	t2 := []Table2Row{{App: "GMail", Scenario: "Compose email", WaRR: Complete, Selenium: Partial}}
	if s := FormatTable2(t2); !strings.Contains(s, "C") || !strings.Contains(s, "P") {
		t.Errorf("FormatTable2:\n%s", s)
	}
}

// TestCampaignPrefixSharingKeepsFindings runs warr-bench's
// prefix-sharing experiment on the edit-site scenario: the flat,
// shared-prefix and concurrent runs must flag the same injections over
// the corpus golden's mutant count, the table must carry the scenario's
// row with that verdict, and a diverging run must show as DIVERGED.
func TestCampaignPrefixSharingKeepsFindings(t *testing.T) {
	data, err := os.ReadFile("../../testdata/corpus/edit-site.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Navigation struct{ Generated int } `json:"navigation"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	sc := apps.EditSiteScenario()
	row, err := Campaign(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Mutants != golden.Navigation.Generated || row.Parallelism != 2 {
		t.Fatalf("campaign row %+v: want %d mutants at parallelism 2", row, golden.Navigation.Generated)
	}
	if !row.FindingsMatch() {
		t.Fatalf("runs diverged:\n flat       %v\n sequential %v\n parallel   %v",
			row.FlatFindings, row.SequentialFindings, row.ParallelFindings)
	}
	rowLine := func(r CampaignRow) string {
		for _, l := range strings.Split(FormatCampaign([]CampaignRow{r}), "\n") {
			if strings.HasPrefix(l, sc.Name+" ") {
				return l
			}
		}
		return ""
	}
	want := fmt.Sprintf(" %d equal", len(row.SequentialFindings))
	if line := rowLine(row); !strings.Contains(line, fmt.Sprintf(" %d ", row.Mutants)) || !strings.HasSuffix(line, want) {
		t.Errorf("table row %q: want %d mutants and suffix %q", line, row.Mutants, want)
	}
	row.ParallelFindings = append(row.ParallelFindings, "extra => finding")
	if line := rowLine(row); row.FindingsMatch() || !strings.HasSuffix(line, " DIVERGED") {
		t.Errorf("a diverging parallel run reads as matching: %q", line)
	}
}
