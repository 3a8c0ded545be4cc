package trace

// Durable-image corpus entries. Alongside the golden trace archives,
// the corpus pins one committed WARR-IMAGE file: a world captured
// mid-replay of a corpus archive, the same artifact a cancelled replay
// job checkpoints into the journal. Verification is
// deliberately hermetic — the committed bytes are decoded (exercising
// the format's checksum and version validation), their content digest
// is compared against the golden (stable in CI because it hashes the
// committed bytes, never a re-capture), and the restored session is
// driven to completion, pinning that a world imaged by one build stays
// restorable and replayable by every later one. Breaking the image
// format or the restore path without bumping goldens is drift.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/image"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// ImageExt is the corpus suffix for committed world images; an image's
// golden sits next to it at <name>.image.golden.json.
const ImageExt = ".image"

// imageDepthKey is the image header key recording how many trace
// commands the imaged session had already consumed.
const imageDepthKey = "fork-depth"

// imageEntries names the corpus archives that also pin a world image,
// captured at half the trace. One deterministic workload is enough to
// pin the format; the per-fork-point coverage lives in the image
// package's equivalence tests.
var imageEntries = []string{"edit-site"}

// ImageOutcome is everything the corpus runner observes about one
// committed world image; it is diffed against the golden like an
// archive outcome.
type ImageOutcome struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`

	Scenario string `json:"scenario"`
	App      string `json:"app"`
	Format   int    `json:"formatVersion"`
	Depth    int    `json:"forkDepth"`

	// Outcome of resuming the restored session to completion.
	Played     int    `json:"played"`
	Failed     int    `json:"failed"`
	Complete   bool   `json:"complete"`
	FinalURL   string `json:"finalURL"`
	FinalTitle string `json:"finalTitle"`
}

// RunImage decodes the committed image at path, restores it, resumes
// the imaged session to completion, and returns the observed outcome.
func RunImage(path string) (*ImageOutcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, digest, err := image.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	depth, err := strconv.Atoi(img.Header.Extra[imageDepthKey])
	if err != nil {
		return nil, fmt.Errorf("%s: bad %s header: %w", filepath.Base(path), imageDepthKey, err)
	}
	_, sess, err := image.LoadSession(img, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: restore: %w", filepath.Base(path), err)
	}
	res := sess.Run()
	out := &ImageOutcome{
		Name:     strings.TrimSuffix(filepath.Base(path), ImageExt),
		Digest:   digest,
		Scenario: img.Header.Scenario,
		App:      img.Header.App,
		Format:   img.Header.Version,
		Depth:    depth,
		Played:   res.Played,
		Failed:   res.Failed,
		Complete: res.Complete(),
	}
	if tab := sess.Tab(); tab != nil {
		out.FinalURL = tab.URL()
		out.FinalTitle = tab.Title()
	}
	return out, nil
}

// images lists the committed corpus images in dir, sorted by name.
func images(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+ImageExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// recordImage replays the named corpus archive to half its commands in
// a fresh environment, captures the world, and writes the image next to
// the archive. Capture is deterministic for deterministic workloads, so
// re-recording produces byte-identical images.
func recordImage(dir, name string) error {
	data, err := os.ReadFile(filepath.Join(dir, name+ArchiveExt))
	if err != nil {
		return fmt.Errorf("trace: image entry %s needs its archive: %w", name, err)
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("trace: %s: %w", name, err)
	}
	tr, err := rd.Trace()
	if err != nil {
		return fmt.Errorf("trace: %s: %w", name, err)
	}
	h := rd.Header()

	env := apps.NewEnv(browser.DeveloperMode)
	sess, err := replayer.New(env.Browser, replayer.Options{}).NewSession(nil, tr)
	if err != nil {
		return fmt.Errorf("trace: %s: %w", name, err)
	}
	depth := len(tr.Commands) / 2
	for i := 0; i < depth; i++ {
		if _, ok := sess.Next(); !ok {
			return fmt.Errorf("trace: %s: archive replay ended at command %d", name, i)
		}
	}
	img, err := image.Capture(env, sess, image.Header{
		Scenario: h.Scenario,
		App:      h.App,
		Creator:  "warr-corpus",
		Extra:    map[string]string{imageDepthKey: strconv.Itoa(depth)},
	})
	if err != nil {
		return fmt.Errorf("trace: imaging %s: %w", name, err)
	}
	out, _, err := image.Encode(img)
	if err != nil {
		return fmt.Errorf("trace: encoding %s image: %w", name, err)
	}
	return os.WriteFile(filepath.Join(dir, name+ImageExt), out, 0o644)
}
