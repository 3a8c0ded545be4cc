package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	// Linking the calendar plugin registers its app and create-event
	// scenario; the corpus includes their archives.
	_ "github.com/dslab-epfl/warr/apps/calendar"
	"github.com/dslab-epfl/warr/internal/trace"
)

// corpusDir is the committed golden corpus, relative to this package.
const corpusDir = "../../testdata/corpus"

// TestCorpusMatchesGoldens is the in-test mirror of the CI corpus gate:
// every committed archive must replay to exactly its committed golden
// outcome. When this fails after a deliberate behavior change, run
// `go run ./cmd/warr-corpus -update` and commit the golden diff.
func TestCorpusMatchesGoldens(t *testing.T) {
	mismatches, err := trace.VerifyDir(corpusDir)
	if err != nil {
		t.Fatalf("verifying corpus: %v", err)
	}
	for _, m := range mismatches {
		t.Errorf("corpus drift in %s:\n%s", m.Name, m.Diff)
	}
	if len(mismatches) > 0 {
		t.Log("if this drift is intended, run `go run ./cmd/warr-corpus -update` and commit the diff")
	}
}

// TestCorpusCoversEveryEntry pins the corpus inventory: an entry added
// to trace.Entries() without a committed archive (or an archive with no
// backing entry) is drift.
func TestCorpusCoversEveryEntry(t *testing.T) {
	want := make(map[string]bool)
	for _, e := range trace.Entries() {
		want[e.Name] = true
	}
	paths, err := trace.Archives(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, p := range paths {
		name := filepath.Base(p)
		got[name[:len(name)-len(trace.ArchiveExt)]] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("entry %s has no committed archive; run `go run ./cmd/warr-corpus -record`", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("archive %s%s has no corpus entry", name, trace.ArchiveExt)
		}
	}
}

// TestRecordingIsDeterministic asserts the property the whole corpus
// rests on: recording the same scenario twice produces identical
// archives, up to GMail's deliberately volatile generated element ids
// (a process-global, never-repeating counter — the very property that
// forces XPath relaxation at replay, §IV-C). Everything else runs on
// the virtual clock, so no wall-clock bytes may leak in.
func TestRecordingIsDeterministic(t *testing.T) {
	volatileID := regexp.MustCompile(`@id=":[0-9]+"`)
	for _, e := range trace.Entries() {
		a, err := e.RecordEntry()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		b, err := e.RecordEntry()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if bytes.Equal(a, b) {
			continue
		}
		na := volatileID.ReplaceAllString(archiveBody(t, a), `@id=":N"`)
		nb := volatileID.ReplaceAllString(archiveBody(t, b), `@id=":N"`)
		if na != nb {
			t.Errorf("%s: two recordings differ beyond volatile ids:\n%s", e.Name, trace.DiffLines(na, nb))
		}
	}
}

// archiveBody decompresses an archive's body text.
func archiveBody(t *testing.T, data []byte) string {
	t.Helper()
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rd.KeepBody()
	if _, err := rd.Trace(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(rd.BodyLines(), "\n")
}

// TestRunArchiveIsDeterministic replays one archive twice and requires
// identical outcomes — the determinism half of the corpus gate.
func TestRunArchiveIsDeterministic(t *testing.T) {
	path := filepath.Join(corpusDir, "edit-site"+trace.ArchiveExt)
	if _, err := os.Stat(path); err != nil {
		t.Skipf("corpus archive missing: %v", err)
	}
	a, err := trace.RunArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.RunArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := trace.MarshalOutcome(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := trace.MarshalOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("two replays of the same archive produced different outcomes:\n%s", trace.DiffLines(string(aj), string(bj)))
	}
}

// TestUpdateDirRemovesOrphanGoldens asserts the verify/update cycle
// converges: a golden whose archive is gone is removed by trace.UpdateDir,
// not left to fail verification forever.
func TestUpdateDirRemovesOrphanGoldens(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join(corpusDir, "edit-site"+trace.ArchiveExt))
	if err != nil {
		t.Skipf("corpus archive missing: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "edit-site"+trace.ArchiveExt), src, 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "retired"+trace.GoldenExt)
	if err := os.WriteFile(orphan, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.UpdateDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan golden survived trace.UpdateDir: %v", err)
	}
	if mismatches, err := trace.VerifyDir(dir); err != nil || len(mismatches) != 0 {
		t.Errorf("corpus not green after trace.UpdateDir: %v %v", mismatches, err)
	}
}

// TestCorpusArchivesReplayComplete asserts the paper's durability claim
// over the committed corpus: every archive replays to completion in a
// fresh environment (the nondet annotations and search variants
// included).
func TestCorpusArchivesReplayComplete(t *testing.T) {
	paths, err := trace.Archives(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		out, err := trace.RunArchive(p)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		if !out.Complete {
			t.Errorf("%s: replay incomplete (played %d, failed %d)", filepath.Base(p), out.Played, out.Failed)
		}
		if !out.XPathAgree {
			t.Errorf("%s: indexed and walker XPath engines disagreed", filepath.Base(p))
		}
	}
}
