package xpath_test

import (
	"path/filepath"
	"testing"

	"github.com/dslab-epfl/warr/internal/trace"
	"github.com/dslab-epfl/warr/internal/xpath"
)

// TestRelaxationExprMatchesPath checks, for every relaxation of every
// XPath the committed corpus records, that the stored expression is
// the path's rendering: the replayer reports Expr as the expression it
// used.
func TestRelaxationExprMatchesPath(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("../../testdata/corpus", "*"+trace.ArchiveExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus archives")
	}
	checked := 0
	for _, path := range paths {
		_, tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, cmd := range tr.Commands {
			p, err := xpath.Parse(cmd.XPath)
			if err != nil {
				continue
			}
			for _, r := range xpath.Relaxations(p) {
				if want := r.Path.String(); r.Expr != want {
					t.Errorf("%s: relaxation %s of %s: Expr %q, want %q", path, r.Heuristic, cmd.XPath, r.Expr, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no relaxations checked")
	}
}
