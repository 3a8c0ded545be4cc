// Command warr-corpus maintains and verifies the golden-trace
// regression corpus under testdata/corpus/: one versioned trace archive
// per recordable scenario, each paired with a golden JSON outcome.
//
// CI runs `warr-corpus -verify` on every change: each archive is
// replayed through a fresh environment and its observed outcome (step
// counts, relaxation counts, indexed-vs-walker XPath agreement,
// inferred grammar fingerprint, WebErr campaign findings) is diffed
// against the committed golden. Any drift fails the build; deliberate
// drift is committed with `warr-corpus -update` so the diff is visible
// in review.
//
// Usage:
//
//	warr-corpus -verify               # replay all archives, diff against goldens (CI gate)
//	warr-corpus -update               # regenerate goldens after a deliberate behavior change
//	warr-corpus -record               # re-record all archives from their scenarios
//	warr-corpus -run edit-site.warr   # print one archive's outcome JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	// Linking the calendar plugin registers its app and create-event
	// scenario, so the corpus covers it like any other workload.
	_ "github.com/dslab-epfl/warr/apps/calendar"
	"github.com/dslab-epfl/warr/internal/trace"
)

func main() {
	dir := flag.String("corpus", "testdata/corpus", "corpus directory")
	verify := flag.Bool("verify", false, "replay every archive and diff outcomes against goldens; non-zero exit on drift")
	update := flag.Bool("update", false, "regenerate goldens from current behavior (commit the diff)")
	record := flag.Bool("record", false, "re-record every archive from its scenario (then run -update)")
	runOne := flag.String("run", "", "replay one archive file and print its outcome JSON")
	flag.Parse()

	modes := 0
	for _, on := range []bool{*verify, *update, *record, *runOne != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "warr-corpus: exactly one of -verify, -update, -record, -run is required")
		flag.Usage()
		os.Exit(2)
	}

	if err := run(*dir, *verify, *update, *record, *runOne); err != nil {
		fmt.Fprintln(os.Stderr, "warr-corpus:", err)
		os.Exit(1)
	}
}

func run(dir string, verify, update, record bool, runOne string) error {
	switch {
	case runOne != "":
		out, err := trace.RunArchive(runOne)
		if err != nil {
			return err
		}
		b, err := trace.MarshalOutcome(out)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
		return nil

	case record:
		names, err := trace.RecordDir(dir)
		for _, n := range names {
			fmt.Printf("recorded %s\n", n)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%d archives written to %s; run warr-corpus -update to refresh goldens\n", len(names), dir)
		return nil

	case update:
		changed, err := trace.UpdateDir(dir)
		if err != nil {
			return err
		}
		if len(changed) == 0 {
			fmt.Println("goldens already match current behavior")
			return nil
		}
		for _, n := range changed {
			fmt.Printf("updated %s%s\n", n, trace.GoldenExt)
		}
		fmt.Printf("%d golden(s) regenerated — review and commit the diff\n", len(changed))
		return nil

	default: // verify
		mismatches, err := trace.VerifyDir(dir)
		if err != nil {
			return err
		}
		if len(mismatches) == 0 {
			fmt.Printf("corpus green: every archive in %s replays to its golden outcome\n", dir)
			return nil
		}
		for _, m := range mismatches {
			fmt.Fprintf(os.Stderr, "DRIFT %s:\n%s\n\n", m.Name, indent(m.Diff))
		}
		fmt.Fprintf(os.Stderr, "%d corpus entries drifted from their goldens\n", len(mismatches))
		fmt.Fprintln(os.Stderr, "If this change is intended, run `go run ./cmd/warr-corpus -update` and commit the golden diff.")
		os.Exit(1)
		return nil
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
