// Command warr-benchgate turns `go test -bench` output into a JSON
// snapshot and gates pull requests on performance regressions against a
// committed baseline.
//
// CI runs it in two steps:
//
//	go test -bench=. -benchtime=200ms -count=3 -run=NONE . | warr-benchgate -parse -o BENCH_PR.json
//	warr-benchgate -baseline BENCH_BASELINE.json -pr BENCH_PR.json \
//	    -tolerance 0.20 -gate 'BenchmarkReplayGMailWithRelaxation,BenchmarkNavigationCampaign*,BenchmarkWebErrCampaign*'
//
// BENCH_PR.json is uploaded as a build artifact; a gated benchmark whose
// ns/op exceeds the baseline by more than the tolerance fails the build.
// Refreshing the baseline is deliberate: copy the artifact over
// BENCH_BASELINE.json and commit it with the change that justifies it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the JSON shape of one benchmark run.
type Snapshot struct {
	// Benchmarks maps the benchmark name (CPU suffix stripped) to its
	// metrics; "ns/op" is the gated one.
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// Metrics holds one benchmark's reported values by unit.
type Metrics map[string]float64

func main() {
	parse := flag.Bool("parse", false, "parse `go test -bench` output on stdin into a JSON snapshot")
	out := flag.String("o", "", "output file for -parse (default stdout)")
	baseline := flag.String("baseline", "", "committed baseline snapshot to compare against")
	pr := flag.String("pr", "", "snapshot of this change's benchmark run")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression before failing")
	allocTolerance := flag.Float64("alloc-tolerance", 0.20,
		"allowed fractional allocs/op and B/op regression before failing, for gated benchmarks whose baseline reports them")
	gate := flag.String("gate", "", "comma-separated benchmark name patterns to enforce (path.Match globs)")
	flag.Parse()

	var err error
	switch {
	case *parse:
		err = runParse(os.Stdin, *out)
	case *baseline != "" && *pr != "":
		err = runCompare(*baseline, *pr, *tolerance, *allocTolerance, *gate)
	default:
		fmt.Fprintln(os.Stderr, "warr-benchgate: need either -parse or both -baseline and -pr")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "warr-benchgate:", err)
		os.Exit(1)
	}
}

func runParse(r io.Reader, out string) error {
	snap, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// parseBench extracts benchmark result lines from `go test -bench`
// output: name-CPUs, iteration count, then value/unit pairs.
func parseBench(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: make(map[string]Metrics)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the GOMAXPROCS suffix ("-8") so snapshots from
		// different machines name benchmarks identically.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: not a result line
		}
		m := make(Metrics)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			m[fields[i+1]] = v
		}
		if len(m) == 0 {
			continue
		}
		// With -count>1 the same benchmark reports several times; keep
		// the per-unit minimum — the least-noisy estimate for a gate.
		if prev, ok := snap.Benchmarks[name]; ok {
			for unit, v := range m {
				if pv, ok := prev[unit]; !ok || v < pv {
					prev[unit] = v
				}
			}
		} else {
			snap.Benchmarks[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

func readSnapshot(p string) (*Snapshot, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: snapshot has no benchmarks", p)
	}
	return &s, nil
}

// compare evaluates the gated benchmarks of pr against base. It returns
// the human-readable report lines and the regressions found. Beyond
// ns/op, gated benchmarks whose baseline entry reports allocs/op are
// also gated on it (allocTolerance): a change can keep wall-clock flat
// while quietly re-introducing allocation churn on a hot path, and the
// allocation count is the far less noisy signal on shared CI runners.
// Baselines without allocs/op gate on ns/op only, so adoption rides
// the normal baseline-refresh flow. B/op is gated the same way, with
// the same tolerance: a regression back to a few huge allocations per
// op (a fresh ~1 MB compressor per image, say) barely moves allocs/op.
func compare(base, pr *Snapshot, tolerance, allocTolerance float64, gates []string) (report, regressions []string, err error) {
	gated := func(name string) bool {
		for _, g := range gates {
			ok, err := path.Match(g, name)
			if err == nil && ok {
				return true
			}
		}
		return false
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	sawGate := false
	for _, name := range names {
		baseNs, ok := base.Benchmarks[name]["ns/op"]
		if !ok {
			// The gate must fail closed: a gated name that cannot be
			// compared is a lost guard, not a pass.
			if gated(name) {
				regressions = append(regressions,
					fmt.Sprintf("%s: baseline entry has no ns/op metric", name))
				sawGate = true
			}
			continue
		}
		prM, ok := pr.Benchmarks[name]
		if !ok {
			if gated(name) {
				regressions = append(regressions,
					fmt.Sprintf("%s: present in baseline but missing from this run", name))
				sawGate = true
			}
			continue
		}
		prNs, ok := prM["ns/op"]
		if !ok {
			if gated(name) {
				regressions = append(regressions,
					fmt.Sprintf("%s: this run's entry has no ns/op metric", name))
				sawGate = true
			}
			continue
		}
		ratio := prNs / baseNs
		mark := " "
		if gated(name) {
			sawGate = true
			mark = "*"
			if ratio > 1+tolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
						name, prNs, baseNs, 100*(ratio-1), 100*tolerance))
			}
			for _, unit := range []string{"allocs/op", "B/op"} {
				baseV, ok := base.Benchmarks[name][unit]
				if !ok || baseV <= 0 {
					continue
				}
				prV, ok := prM[unit]
				if !ok {
					// Fail closed, as for a missing ns/op: a gated
					// allocation guard that cannot be compared is lost.
					regressions = append(regressions,
						fmt.Sprintf("%s: baseline reports %s but this run does not (run with -benchmem or b.ReportAllocs)", name, unit))
				} else if aratio := prV / baseV; aratio > 1+allocTolerance {
					regressions = append(regressions,
						fmt.Sprintf("%s: %.0f %s vs baseline %.0f %s (%+.1f%%, tolerance %.0f%%)",
							name, prV, unit, baseV, unit, 100*(aratio-1), 100*allocTolerance))
				}
			}
		}
		report = append(report,
			fmt.Sprintf("%s %-45s %12.0f -> %12.0f ns/op  (%+.1f%%)", mark, name, baseNs, prNs, 100*(ratio-1)))
	}
	// Benchmarks present only in this run have no baseline to gate
	// against; list them so an unguarded gated name is visible and the
	// baseline refresh is not forgotten.
	var added []string
	for name := range pr.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		mark := " "
		if gated(name) {
			mark = "*"
		}
		report = append(report,
			fmt.Sprintf("%s %-45s %12s -> %12.0f ns/op  (new: not in baseline, not gated — refresh BENCH_BASELINE.json to guard it)",
				mark, name, "—", pr.Benchmarks[name]["ns/op"]))
	}
	if len(gates) > 0 && !sawGate {
		return report, regressions, fmt.Errorf("no baseline benchmark matches the gate patterns %v", gates)
	}
	return report, regressions, nil
}

func runCompare(basePath, prPath string, tolerance, allocTolerance float64, gate string) error {
	base, err := readSnapshot(basePath)
	if err != nil {
		return err
	}
	pr, err := readSnapshot(prPath)
	if err != nil {
		return err
	}
	var gates []string
	for _, g := range strings.Split(gate, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gates = append(gates, g)
		}
	}
	report, regressions, err := compare(base, pr, tolerance, allocTolerance, gates)
	if err != nil {
		return err
	}
	fmt.Println("benchmark comparison (* = gated):")
	for _, line := range report {
		fmt.Println(line)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d gated benchmark(s) regressed beyond tolerance:\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		fmt.Fprintln(os.Stderr, "If this cost is justified, refresh BENCH_BASELINE.json from the BENCH_PR.json artifact and commit it with the explanation.")
		os.Exit(1)
	}
	fmt.Println("bench gate green: no gated benchmark regressed beyond tolerance")
	return nil
}
