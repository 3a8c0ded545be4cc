package trace

// This file implements the golden-trace regression corpus: a directory
// of committed archives — one per recordable scenario — each paired
// with a golden JSON outcome. The corpus runner replays every archive
// through a fresh environment and diffs what it observes (step counts,
// relaxation counts, indexed-vs-walker XPath agreement, the inferred
// grammar fingerprint, campaign findings) against the golden, so any
// behavioral drift anywhere in the recorder/replayer/xpath/campaign
// stack turns into a reviewable diff instead of a silent change.
//
// Layout, under testdata/corpus/:
//
//	edit-site.warr          archive (versioned, gzip body)
//	edit-site.golden.json   expected replay outcome
//	...
//
// Archives are self-describing: the "corpus-campaigns" extra header key
// tells the runner to also execute WebErr navigation/timing campaigns
// over the trace and fold their findings into the outcome.
//
// Determinism note: GMail's generated element ids come from a
// process-global, never-repeating counter (the paper's stale-id
// behavior), so a GMail outcome's relaxed-step count depends on whether
// the replaying process has rendered GMail pages before. VerifyDir and
// UpdateDir replay archives in sorted filename order in which the
// .nondet variant (recorded later, with higher ids) precedes the plain
// one, so the counter can never realign with a recorded id and the
// outcomes are stable. Replaying a single GMail archive in isolation
// (warr-corpus -run) can therefore legitimately report fewer relaxed
// steps than its golden.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/record"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/weberr"
	"github.com/dslab-epfl/warr/internal/xpath"
)

// ArchiveExt and GoldenExt are the corpus file suffixes.
const (
	ArchiveExt = ".warr"
	GoldenExt  = ".golden.json"
)

// campaignsKey is the extra header key marking archives whose outcome
// includes WebErr campaign results.
const campaignsKey = "corpus-campaigns"

// Outcome is everything the corpus runner observes about one archive.
// It is diffed field by field against the committed golden.
type Outcome struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	App      string `json:"app"`
	Format   int    `json:"formatVersion"`

	// ArchiveSHA256 fingerprints the archive file itself, so any byte
	// change to a committed archive — even semantically inert ones —
	// is visible as golden drift.
	ArchiveSHA256 string `json:"archiveSHA256"`

	Commands int    `json:"commands"`
	Comments int    `json:"annotationComments"`
	StartURL string `json:"startURL"`
	Recorded string `json:"recordedDuration"`

	// Replay outcome in a fresh developer-mode environment.
	Played        int      `json:"played"`
	Failed        int      `json:"failed"`
	RelaxedSteps  int      `json:"relaxedSteps"`
	CoordSteps    int      `json:"coordinateSteps"`
	Complete      bool     `json:"complete"`
	FinalURL      string   `json:"finalURL"`
	FinalTitle    string   `json:"finalTitle"`
	ConsoleErrors []string `json:"consoleErrors,omitempty"`

	// Indexed-vs-walker differential: every XPath the replayer resolved
	// is re-evaluated with both engines over every frame.
	XPathChecked int  `json:"xpathChecked"`
	XPathAgree   bool `json:"indexedWalkerAgree"`

	// GrammarRules and GrammarFingerprint pin the task-tree inference:
	// the fingerprint is a truncated SHA-256 of the grammar text.
	GrammarRules       int    `json:"grammarRules"`
	GrammarFingerprint string `json:"grammarFingerprint"`

	// Campaign outcomes, present when the archive's corpus-campaigns
	// header asks for them.
	Navigation *CampaignSummary `json:"navigation,omitempty"`
	Timing     *CampaignSummary `json:"timing,omitempty"`
}

// CampaignSummary pins a WebErr campaign's observable result.
type CampaignSummary struct {
	Generated      int `json:"generated"`
	Replayed       int `json:"replayed"`
	Pruned         int `json:"pruned"`
	ReplayFailures int `json:"replayFailures"`
	Findings       int `json:"findings"`
	// Injections are the findings' injection descriptions, sorted.
	Injections []string `json:"injections,omitempty"`
}

// RunArchive replays the archive at path through a fresh environment
// and returns its outcome.
func RunArchive(path string) (*Outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	tr, err := rd.Trace()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	h := rd.Header()
	sum := sha256.Sum256(data)

	out := &Outcome{
		Name:          strings.TrimSuffix(filepath.Base(path), ArchiveExt),
		Scenario:      h.Scenario,
		App:           h.App,
		Format:        h.Version,
		ArchiveSHA256: hex.EncodeToString(sum[:]),
		Commands:      len(tr.Commands),
		Comments:      rd.Comments(),
		StartURL:      tr.StartURL,
		Recorded:      tr.Duration().String(),
		XPathAgree:    true,
	}

	// Replay in a fresh developer-mode environment, re-checking every
	// resolved XPath with both evaluation engines.
	env := apps.NewEnv(browser.DeveloperMode)
	agreement := replayer.Hooks{
		OnResolve: func(step replayer.Step, tab *browser.Tab) {
			if step.UsedXPath == "" {
				return
			}
			p, err := xpath.Parse(step.UsedXPath)
			if err != nil {
				return // coordinate fallback may report unparseable paths
			}
			out.XPathChecked++
			for _, f := range tab.MainFrame().Descendants() {
				if f.Doc() == nil {
					continue
				}
				indexed := xpath.Evaluate(p, f.Doc().Root())
				walked := xpath.EvaluateWalk(p, f.Doc().Root())
				if len(indexed) != len(walked) {
					out.XPathAgree = false
					return
				}
				for i := range indexed {
					if indexed[i] != walked[i] {
						out.XPathAgree = false
						return
					}
				}
			}
		},
	}
	r := replayer.New(env.Browser, replayer.Options{Hooks: []replayer.Hooks{agreement}})
	res, tab, err := r.Replay(tr)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", filepath.Base(path), err)
	}
	out.Played = res.Played
	out.Failed = res.Failed
	out.Complete = res.Complete()
	for _, s := range res.Steps {
		switch s.Status {
		case replayer.StepRelaxed:
			out.RelaxedSteps++
		case replayer.StepByCoordinates:
			out.CoordSteps++
		}
	}
	if tab != nil {
		out.FinalURL = tab.URL()
		out.FinalTitle = tab.Title()
		for _, e := range tab.ConsoleErrors() {
			out.ConsoleErrors = append(out.ConsoleErrors, e.Message)
		}
	}

	// Task-tree inference fingerprint.
	newEnv := apps.BrowserFactory(browser.DeveloperMode)
	tree, err := weberr.InferTaskTree(newEnv, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: task tree: %w", filepath.Base(path), err)
	}
	g := weberr.FromTaskTree(tree)
	out.GrammarRules = len(g.RuleNames())
	gsum := sha256.Sum256([]byte(g.String()))
	out.GrammarFingerprint = hex.EncodeToString(gsum[:8])

	// Campaigns, when the archive asks for them — run as jobs on the
	// shared engine (one worker, so execution stays sequential and the
	// GMail id-counter determinism note above still holds). The engine's
	// default environments are the same registry-backed worlds newEnv
	// builds, so outcomes are identical to the historical direct calls.
	kinds := strings.Split(h.Extra[campaignsKey], ",")
	hasCampaign := false
	for _, kind := range kinds {
		if strings.TrimSpace(kind) != "" {
			hasCampaign = true
		}
	}
	if hasCampaign {
		engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: len(kinds)})
		defer engine.Close()
		for _, kind := range kinds {
			var spec jobs.Spec
			switch strings.TrimSpace(kind) {
			case "":
				continue
			case "navigation":
				// The grammar is already inferred (fingerprinted above);
				// hand it to the job so inference does not replay again.
				spec = jobs.Spec{Kind: jobs.KindNavigationCampaign, Trace: tr, Grammar: g}
			case "timing":
				spec = jobs.Spec{Kind: jobs.KindTimingCampaign, Trace: tr}
			default:
				return nil, fmt.Errorf("%s: unknown %s kind %q", filepath.Base(path), campaignsKey, kind)
			}
			job, err := engine.Submit(spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %s campaign: %w", filepath.Base(path), strings.TrimSpace(kind), err)
			}
			_ = job.Wait(nil)
			if err := job.Err(); err != nil {
				return nil, fmt.Errorf("%s: %s campaign: %w", filepath.Base(path), strings.TrimSpace(kind), err)
			}
			switch strings.TrimSpace(kind) {
			case "navigation":
				out.Navigation = summarize(job.Report())
			case "timing":
				out.Timing = summarize(job.Report())
			}
		}
	}
	return out, nil
}

func summarize(rep *weberr.Report) *CampaignSummary {
	s := &CampaignSummary{
		Generated:      rep.Generated,
		Replayed:       rep.Replayed,
		Pruned:         rep.Pruned,
		ReplayFailures: rep.ReplayFailures,
		Findings:       len(rep.Findings),
	}
	for _, f := range rep.Findings {
		s.Injections = append(s.Injections, f.Injection.String())
	}
	sort.Strings(s.Injections)
	return s
}

// MarshalOutcome renders an outcome the way goldens are stored:
// two-space indented JSON with a trailing newline.
func MarshalOutcome(out *Outcome) ([]byte, error) { return marshalGolden(out) }

func marshalGolden(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ---- verify / update ----

// Mismatch is one corpus entry whose outcome differs from its golden
// (or whose archive/golden pairing is broken).
type Mismatch struct {
	Name string
	// Diff is a human-readable description: a line diff of the golden
	// JSON, or the error that prevented comparison.
	Diff string
}

// archives lists the corpus archives in dir, sorted by name.
func archives(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+ArchiveExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// goldenPath pairs an archive path with its golden path.
func goldenPath(archive string) string {
	return strings.TrimSuffix(archive, ArchiveExt) + GoldenExt
}

// VerifyDir replays every archive in dir and diffs its outcome against
// the committed golden. It returns one Mismatch per drifted, broken, or
// unpaired entry; an empty slice means the corpus is green.
func VerifyDir(dir string) ([]Mismatch, error) {
	paths, err := archives(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: no %s archives in %s", ArchiveExt, dir)
	}
	var mismatches []Mismatch
	seen := make(map[string]bool)
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ArchiveExt)
		seen[name] = true
		want, err := os.ReadFile(goldenPath(p))
		if err != nil {
			mismatches = append(mismatches, Mismatch{name, fmt.Sprintf("golden missing: %v", err)})
			continue
		}
		out, err := RunArchive(p)
		if err != nil {
			mismatches = append(mismatches, Mismatch{name, fmt.Sprintf("archive failed to run: %v", err)})
			continue
		}
		got, err := MarshalOutcome(out)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			mismatches = append(mismatches, Mismatch{name, diffLines(string(want), string(got))})
		}
	}
	// Goldens whose archive is gone are drift too.
	goldens, err := filepath.Glob(filepath.Join(dir, "*"+GoldenExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(goldens)
	for _, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), GoldenExt)
		if !seen[name] {
			mismatches = append(mismatches, Mismatch{name, "golden has no matching archive"})
		}
	}
	return mismatches, nil
}

// UpdateDir regenerates the golden for every archive in dir — and
// removes goldens whose archive is gone, so the verify/update cycle
// always converges — reporting which goldens changed.
func UpdateDir(dir string) (changed []string, err error) {
	paths, err := archives(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: no %s archives in %s", ArchiveExt, dir)
	}
	hasArchive := make(map[string]bool)
	for _, p := range paths {
		hasArchive[strings.TrimSuffix(filepath.Base(p), ArchiveExt)] = true
	}
	goldens, err := filepath.Glob(filepath.Join(dir, "*"+GoldenExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(goldens)
	for _, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), GoldenExt)
		if hasArchive[name] {
			continue
		}
		if err := os.Remove(g); err != nil {
			return changed, err
		}
		changed = append(changed, name+" (removed: archive gone)")
	}
	for _, p := range paths {
		out, err := RunArchive(p)
		if err != nil {
			return changed, fmt.Errorf("%s: %w", p, err)
		}
		got, err := MarshalOutcome(out)
		if err != nil {
			return changed, err
		}
		old, readErr := os.ReadFile(goldenPath(p))
		if readErr == nil && bytes.Equal(old, got) {
			continue
		}
		if err := os.WriteFile(goldenPath(p), got, 0o644); err != nil {
			return changed, err
		}
		changed = append(changed, strings.TrimSuffix(filepath.Base(p), ArchiveExt))
	}
	return changed, nil
}

// diffLines renders a minimal line diff of two JSON documents: common
// lines elided, golden lines prefixed "-", observed lines prefixed "+".
func diffLines(want, got string) string {
	wl := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	var b strings.Builder
	i, j := 0, 0
	for i < len(wl) || j < len(gl) {
		switch {
		case i < len(wl) && j < len(gl) && wl[i] == gl[j]:
			i++
			j++
		case i < len(wl) && (j >= len(gl) || !contains(gl[j:], wl[i])):
			fmt.Fprintf(&b, "-%s\n", wl[i])
			i++
		case j < len(gl) && (i >= len(wl) || !contains(wl[i:], gl[j])):
			fmt.Fprintf(&b, "+%s\n", gl[j])
			j++
		default:
			// Both lines exist later in the other document; emit the
			// golden side first to resynchronize.
			fmt.Fprintf(&b, "-%s\n", wl[i])
			i++
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}

func contains(lines []string, s string) bool {
	for _, l := range lines {
		if l == s {
			return true
		}
	}
	return false
}

// ---- recording ----

// Entry is one recordable corpus scenario.
type Entry struct {
	// Name is the archive basename (without extension).
	Name string
	// Nondet marks the nondeterminism-annotated variant.
	Nondet bool
	// Campaigns lists the WebErr campaigns the corpus runner executes
	// for this entry ("navigation", "timing").
	Campaigns []string

	scenario func() (apps.Scenario, error)
}

// Entries returns the full corpus, resolved through the scenario
// registry: every registered scenario (the four Table II workloads plus
// any plugin registration linked into the process, e.g. the calendar
// app's create-event) contributes a campaign-bearing archive and a
// nondeterminism-annotated variant; each Table I search engine
// contributes a plain archive of the parameterized search scenario.
func Entries() []Entry {
	// A typoed Table I query, so replaying the search archives exercises
	// the engines' typo-correction path.
	const typoQuery = "weather forecst"
	var es []Entry
	for _, name := range registry.ScenarioNames() {
		name := name
		sc := func() (apps.Scenario, error) { return registry.LookupScenario(name) }
		es = append(es, Entry{
			Name:      name,
			Campaigns: []string{"navigation", "timing"},
			scenario:  sc,
		})
		es = append(es, Entry{
			Name:     name + ".nondet",
			Nondet:   true,
			scenario: sc,
		})
	}
	for _, eng := range []struct{ name, url string }{
		{"google", apps.GoogleURL},
		{"bing", apps.BingURL},
		{"ysearch", apps.YSearchURL},
	} {
		eng := eng
		es = append(es, Entry{
			Name:     "search-" + eng.name,
			scenario: func() (apps.Scenario, error) { return apps.SearchScenario(eng.url, typoQuery), nil },
		})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
	return es
}

// RecordEntry records the entry's scenario in a fresh user-mode
// environment — on the shared record path, live oracle required — and
// returns its archive bytes. Recording runs entirely on the virtual
// clock, so the bytes are reproducible.
func (e Entry) RecordEntry() ([]byte, error) {
	sc, err := e.scenario()
	if err != nil {
		return nil, fmt.Errorf("trace: corpus entry %s: %w", e.Name, err)
	}
	rec, err := record.Record(sc, record.Options{Nondet: e.Nondet, VerifyLive: true})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}

	h := Header{Scenario: sc.Name, App: sc.App, Recorder: "warr-corpus"}
	if len(e.Campaigns) > 0 {
		h.Extra = map[string]string{campaignsKey: strings.Join(e.Campaigns, ",")}
	}
	var buf bytes.Buffer
	if e.Nondet {
		if err := WriteText(&buf, h, rec.Annotated()); err != nil {
			return nil, fmt.Errorf("trace: archiving %s: %w", e.Name, err)
		}
	} else {
		if err := Write(&buf, h, rec.Trace); err != nil {
			return nil, fmt.Errorf("trace: archiving %s: %w", e.Name, err)
		}
	}
	return buf.Bytes(), nil
}

// RecordDir records every corpus entry into dir, one archive each, and
// returns the entry names written.
func RecordDir(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var names []string
	for _, e := range Entries() {
		data, err := e.RecordEntry()
		if err != nil {
			return names, err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name+ArchiveExt), data, 0o644); err != nil {
			return names, err
		}
		names = append(names, e.Name)
	}
	return names, nil
}
