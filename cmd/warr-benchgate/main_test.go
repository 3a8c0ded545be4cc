package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: github.com/dslab-epfl/warr
cpu: some CPU
BenchmarkReplayGMailWithRelaxation-8   	     355	    335849 ns/op	        19.00 relaxed-steps/replay
BenchmarkNavigationCampaignSequential-8	      50	   2400000 ns/op
BenchmarkNavigationCampaignParallel-8  	      60	   2000000 ns/op
BenchmarkWebErrCampaignPruning-8       	     100	   1000000 ns/op
BenchmarkXPathEvaluateIndexed-8        	  500000	       250 ns/op
PASS
ok  	github.com/dslab-epfl/warr	2.951s
`

func parseFixture(t *testing.T) *Snapshot {
	t.Helper()
	snap, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestParseBenchKeepsMinOfRuns(t *testing.T) {
	// With -count>1 the same benchmark reports several result lines;
	// the snapshot keeps the per-unit minimum.
	out := `BenchmarkReplayGMailWithRelaxation-8 100 300000 ns/op
BenchmarkReplayGMailWithRelaxation-8 100 280000 ns/op
BenchmarkReplayGMailWithRelaxation-8 100 310000 ns/op
`
	snap, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Benchmarks["BenchmarkReplayGMailWithRelaxation"]["ns/op"]; got != 280000 {
		t.Errorf("ns/op = %v, want min-of-runs 280000", got)
	}
}

func TestParseBench(t *testing.T) {
	snap := parseFixture(t)
	if len(snap.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(snap.Benchmarks), snap.Benchmarks)
	}
	m := snap.Benchmarks["BenchmarkReplayGMailWithRelaxation"]
	if m == nil {
		t.Fatal("CPU suffix not stripped from benchmark name")
	}
	if m["ns/op"] != 335849 {
		t.Errorf("ns/op = %v, want 335849", m["ns/op"])
	}
	if m["relaxed-steps/replay"] != 19 {
		t.Errorf("custom metric = %v, want 19", m["relaxed-steps/replay"])
	}
}

func TestCompareGate(t *testing.T) {
	base := parseFixture(t)
	gates := []string{"BenchmarkReplayGMailWithRelaxation", "BenchmarkNavigationCampaign*", "BenchmarkWebErrCampaign*"}

	// Identical runs pass.
	if _, regs, err := compare(base, parseFixture(t), 0.20, 0.20, gates); err != nil || len(regs) != 0 {
		t.Fatalf("identical snapshots: regs=%v err=%v", regs, err)
	}

	// A regression within tolerance passes; beyond tolerance fails.
	within := parseFixture(t)
	within.Benchmarks["BenchmarkReplayGMailWithRelaxation"]["ns/op"] *= 1.15
	if _, regs, err := compare(base, within, 0.20, 0.20, gates); err != nil || len(regs) != 0 {
		t.Fatalf("within-tolerance regression flagged: regs=%v err=%v", regs, err)
	}
	beyond := parseFixture(t)
	beyond.Benchmarks["BenchmarkReplayGMailWithRelaxation"]["ns/op"] *= 1.30
	if _, regs, _ := compare(base, beyond, 0.20, 0.20, gates); len(regs) != 1 {
		t.Fatalf("beyond-tolerance regression not flagged: regs=%v", regs)
	}

	// An ungated benchmark may regress freely.
	ungated := parseFixture(t)
	ungated.Benchmarks["BenchmarkXPathEvaluateIndexed"]["ns/op"] *= 10
	if _, regs, _ := compare(base, ungated, 0.20, 0.20, gates); len(regs) != 0 {
		t.Fatalf("ungated regression flagged: %v", regs)
	}

	// A gated benchmark disappearing from the PR run fails.
	missing := parseFixture(t)
	delete(missing.Benchmarks, "BenchmarkWebErrCampaignPruning")
	if _, regs, _ := compare(base, missing, 0.20, 0.20, gates); len(regs) != 1 {
		t.Fatalf("missing gated benchmark not flagged: %v", regs)
	}

	// The gate fails closed: a gated entry with no ns/op metric (on
	// either side) is a lost guard, not a pass.
	noNs := parseFixture(t)
	delete(noNs.Benchmarks["BenchmarkWebErrCampaignPruning"], "ns/op")
	if _, regs, _ := compare(base, noNs, 0.20, 0.20, gates); len(regs) != 1 {
		t.Fatalf("gated PR entry without ns/op not flagged: %v", regs)
	}
	baseNoNs := parseFixture(t)
	delete(baseNoNs.Benchmarks["BenchmarkWebErrCampaignPruning"], "ns/op")
	if _, regs, _ := compare(baseNoNs, parseFixture(t), 0.20, 0.20, gates); len(regs) != 1 {
		t.Fatalf("gated baseline entry without ns/op not flagged: %v", regs)
	}

	// Gate patterns that match nothing are a configuration error.
	if _, _, err := compare(base, parseFixture(t), 0.20, 0.20, []string{"BenchmarkNope*"}); err == nil {
		t.Fatal("dead gate pattern not reported")
	}

	// A benchmark only in the PR run is listed in the report (so an
	// unguarded gated name is visible) but cannot regress the gate.
	novel := parseFixture(t)
	novel.Benchmarks["BenchmarkNavigationCampaignHuge"] = Metrics{"ns/op": 9e9}
	rep, regs, err := compare(base, novel, 0.20, 0.20, gates)
	if err != nil || len(regs) != 0 {
		t.Fatalf("PR-only benchmark: regs=%v err=%v", regs, err)
	}
	found := false
	for _, line := range rep {
		if strings.Contains(line, "BenchmarkNavigationCampaignHuge") && strings.Contains(line, "not in baseline") {
			found = true
		}
	}
	if !found {
		t.Fatalf("PR-only benchmark missing from report:\n%s", strings.Join(rep, "\n"))
	}
}

// snapWith builds a one-benchmark snapshot inline.
func snapWith(name string, metrics Metrics) *Snapshot {
	return &Snapshot{Benchmarks: map[string]Metrics{name: metrics}}
}

func TestCompareGatesAllocs(t *testing.T) {
	gates := []string{"BenchmarkCampaignSharedPrefix"}
	base := snapWith("BenchmarkCampaignSharedPrefix", Metrics{"ns/op": 1000000, "allocs/op": 10000})

	// Within tolerance on both axes: pass.
	ok := snapWith("BenchmarkCampaignSharedPrefix", Metrics{"ns/op": 1100000, "allocs/op": 11500})
	if _, regs, err := compare(base, ok, 0.20, 0.20, gates); err != nil || len(regs) != 0 {
		t.Fatalf("within tolerance: regs=%v err=%v", regs, err)
	}

	// Flat wall-clock but a >20% allocation regression: fail.
	churn := snapWith("BenchmarkCampaignSharedPrefix", Metrics{"ns/op": 1000000, "allocs/op": 12500})
	if _, regs, _ := compare(base, churn, 0.20, 0.20, gates); len(regs) != 1 {
		t.Fatalf("alloc regression not caught: %v", regs)
	}

	// Baseline guards allocs but this run didn't report them: fail closed.
	silent := snapWith("BenchmarkCampaignSharedPrefix", Metrics{"ns/op": 1000000})
	if _, regs, _ := compare(base, silent, 0.20, 0.20, gates); len(regs) != 1 {
		t.Fatalf("missing allocs/op not caught: %v", regs)
	}

	// A baseline without allocs/op gates on ns/op only.
	nsOnly := snapWith("BenchmarkCampaignSharedPrefix", Metrics{"ns/op": 1000000})
	if _, regs, err := compare(nsOnly, churn, 0.20, 0.20, gates); err != nil || len(regs) != 0 {
		t.Fatalf("ns-only baseline: regs=%v err=%v", regs, err)
	}

	// The alloc tolerance is its own knob.
	if _, regs, _ := compare(base, ok, 0.20, 0.10, gates); len(regs) != 1 {
		t.Fatalf("tight alloc tolerance not enforced: %v", regs)
	}
}

func TestCompareGatesBytes(t *testing.T) {
	gates := []string{"BenchmarkCampaignDistributed"}
	base := snapWith("BenchmarkCampaignDistributed", Metrics{"ns/op": 25000000, "allocs/op": 28000, "B/op": 4000000})

	// Within tolerance on every axis: pass.
	ok := snapWith("BenchmarkCampaignDistributed", Metrics{"ns/op": 25000000, "allocs/op": 28500, "B/op": 4700000})
	if _, regs, err := compare(base, ok, 0.20, 0.20, gates); err != nil || len(regs) != 0 {
		t.Fatalf("within tolerance: regs=%v err=%v", regs, err)
	}

	// Flat wall clock and allocation count, but bytes tripled — a few
	// huge allocations per op are back: fail on B/op alone.
	bloat := snapWith("BenchmarkCampaignDistributed", Metrics{"ns/op": 25000000, "allocs/op": 28600, "B/op": 12300000})
	_, regs, _ := compare(base, bloat, 0.20, 0.20, gates)
	if len(regs) != 1 || !strings.Contains(regs[0], "B/op") {
		t.Fatalf("bytes regression not caught: %v", regs)
	}

	// Baseline guards B/op but this run didn't report it: fail closed.
	silent := snapWith("BenchmarkCampaignDistributed", Metrics{"ns/op": 25000000, "allocs/op": 28000})
	_, regs, _ = compare(base, silent, 0.20, 0.20, gates)
	if len(regs) != 1 || !strings.Contains(regs[0], "B/op") {
		t.Fatalf("missing B/op not caught: %v", regs)
	}

	// A baseline without B/op does not gate on it.
	noBytes := snapWith("BenchmarkCampaignDistributed", Metrics{"ns/op": 25000000, "allocs/op": 28000})
	if _, regs, err := compare(noBytes, bloat, 0.20, 0.20, gates); err != nil || len(regs) != 0 {
		t.Fatalf("baseline without B/op: regs=%v err=%v", regs, err)
	}

	// B/op shares the allocation tolerance.
	if _, regs, _ := compare(base, ok, 0.20, 0.10, gates); len(regs) != 1 {
		t.Fatalf("tight alloc tolerance not applied to B/op: %v", regs)
	}
}
