package multiuser

import (
	"fmt"
	"sort"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/image"
	"github.com/dslab-epfl/warr/internal/registry"
)

// sharedStateKey renders what one app state of a shared world holds
// that a later user can observe: its coverage marks (a pure function of
// the stored state) plus the multi-user fields spelled out, so a
// mismatch names the field that drifted.
func sharedStateKey(st registry.AppState) string {
	var marks []uint64
	if cs, ok := st.(registry.CoverageSource); ok {
		marks = cs.CoverageMarks()
		sort.Slice(marks, func(i, j int) bool { return marks[i] < marks[j] })
	}
	key := fmt.Sprintf("marks=%x", marks)
	switch s := st.(type) {
	case *apps.Sites:
		key += fmt.Sprintf(" notes=%q", s.Notes())
	case *apps.Docs:
		key += fmt.Sprintf(" tally=%d", s.Tally())
	case *apps.Yahoo:
		key += fmt.Sprintf(" presence=%q", s.LastPresence())
	}
	return key
}

// TestImageKeepsSharedWorldState images a shared world after every
// prefix of each load workload's sequential schedule and checks that
// the image restores the same application state an in-memory fork
// carries — including the multi-user fields (Sites notes, the Docs
// tally, Yahoo's last-arrival slot) that no single-user scenario
// touches.
func TestImageKeepsSharedWorldState(t *testing.T) {
	touched := map[string]bool{}
	for _, wl := range Workloads() {
		t.Run(wl.Name, func(t *testing.T) {
			w, err := NewWorld(wl, 2, browser.DeveloperMode, 0)
			if err != nil {
				t.Fatal(err)
			}
			for k, idx := range Sequential(w.OpCounts()).Slots {
				w.step(w.Users[idx])
				fork, err := w.Env.Fork()
				if err != nil {
					t.Fatalf("slot %d: Fork: %v", k, err)
				}
				img, err := image.Capture(w.Env, nil, image.Header{Scenario: wl.Name})
				if err != nil {
					t.Fatalf("slot %d: Capture: %v", k, err)
				}
				data, digest, err := image.Encode(img)
				if err != nil {
					t.Fatalf("slot %d: Encode: %v", k, err)
				}
				decoded, got, err := image.Decode(data)
				if err != nil || got != digest {
					t.Fatalf("slot %d: Decode: digest %s want %s, err %v", k, got, digest, err)
				}
				restored, _, err := image.LoadEnv(decoded, registry.WithApps(wl.Apps()...))
				if err != nil {
					t.Fatalf("slot %d: LoadEnv: %v", k, err)
				}
				for _, name := range w.Env.AppNames() {
					want := sharedStateKey(fork.MustState(name))
					if got := sharedStateKey(restored.MustState(name)); got != want {
						t.Errorf("slot %d app %s: image restored\n  %s\nfork carries\n  %s", k, name, got, want)
					}
					switch s := w.Env.MustState(name).(type) {
					case *apps.Sites:
						touched["notes"] = touched["notes"] || len(s.Notes()) > 0
					case *apps.Docs:
						touched["tally"] = touched["tally"] || s.Tally() > 0
					case *apps.Yahoo:
						touched["presence"] = touched["presence"] || s.LastPresence() != ""
					}
				}
			}
		})
	}
	for _, field := range []string{"notes", "tally", "presence"} {
		if !touched[field] {
			t.Errorf("no workload prefix touched the %s field; the test no longer exercises it", field)
		}
	}
}
